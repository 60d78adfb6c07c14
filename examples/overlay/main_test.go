package main

import (
	"testing"

	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

func udpTo(dport uint16) *packet.Packet {
	return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, packet.MakeIP(10, 0, 0, 2),
		packet.MakeIP(10, 0, 0, 1), 99, dport, 64)
}

type countEnv struct {
	mirrored int
}

func (e *countEnv) Now() sim.Time         { return 0 }
func (e *countEnv) Mirror(*packet.Packet) { e.mirrored++ }
func (e *countEnv) Notify(*packet.Packet) {}

func TestSamplingMirrorProgram(t *testing.T) {
	prog, err := overlay.Assemble("sample", samplingMirrorProgram(3)) // 1 in 8
	if err != nil {
		t.Fatal(err)
	}
	m := overlay.NewMachine(prog)
	env := &countEnv{}
	for i := 0; i < 64; i++ {
		if v, _, _ := m.Run(udpTo(80), env); v != overlay.VerdictPass {
			t.Fatal("sampling must never drop")
		}
	}
	if env.mirrored != 8 {
		t.Fatalf("mirrored %d/64, want 8", env.mirrored)
	}
}

func TestPortMeterProgram(t *testing.T) {
	// 10 KB/s, burst 120 B: one minimum frame, then shed.
	prog, err := overlay.Assemble("meter", portMeterProgram(7777, 10e3, 120))
	if err != nil {
		t.Fatal(err)
	}
	m := overlay.NewMachine(prog)
	env := overlay.NopEnv{Time: 0}
	if v, _, _ := m.Run(udpTo(7777), env); v != overlay.VerdictPass {
		t.Fatal("burst frame passes")
	}
	if v, _, _ := m.Run(udpTo(7777), env); v != overlay.VerdictDrop {
		t.Fatal("second frame sheds")
	}
	if m.Counter("shed") != 1 {
		t.Fatalf("shed = %d", m.Counter("shed"))
	}
	// Other ports are untouched.
	if v, _, _ := m.Run(udpTo(80), env); v != overlay.VerdictPass {
		t.Fatal("other ports pass")
	}
}
