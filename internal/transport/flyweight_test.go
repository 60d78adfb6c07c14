package transport

import (
	"testing"

	"norman/internal/mem"
	"norman/internal/sim"
)

// TestFlyweightRx covers the flyweight receive state machine: in-order
// advance, forward gap acceptance, duplicate drop, closed-state drop.
func TestFlyweightRx(t *testing.T) {
	s := mem.NewConnSlab(4, 0)
	FlyweightOpen(s, 1, 9, 2)
	if s.Tenant[1] != 2 {
		t.Fatal("open did not record the tenant")
	}

	if !FlyweightRx(s, 1, 0, 100, sim.Time(10)) {
		t.Fatal("in-order packet refused")
	}
	if !FlyweightRx(s, 1, 1, 100, sim.Time(20)) {
		t.Fatal("in-order packet refused")
	}
	// Gap: seq 5 after 2 expected — accepted forward, counted out-of-order.
	if !FlyweightRx(s, 1, 5, 100, sim.Time(30)) {
		t.Fatal("forward gap refused")
	}
	if s.SeqNext[1] != 6 || s.OooPkts[1] != 1 {
		t.Fatalf("after gap: next=%d ooo=%d", s.SeqNext[1], s.OooPkts[1])
	}
	// Duplicate: stale sequence dropped and counted.
	if FlyweightRx(s, 1, 3, 100, sim.Time(40)) {
		t.Fatal("duplicate accepted")
	}
	if s.RxPkts[1] != 3 || s.RxBytes[1] != 300 || s.OooPkts[1] != 2 {
		t.Fatalf("counters: pkts=%d bytes=%d ooo=%d", s.RxPkts[1], s.RxBytes[1], s.OooPkts[1])
	}
	if s.LastAt[1] != sim.Time(30) {
		t.Fatalf("LastAt = %v", s.LastAt[1])
	}
	// Closed connection receives nothing.
	if FlyweightRx(s, 2, 0, 100, sim.Time(50)) {
		t.Fatal("closed connection accepted a packet")
	}
}

// TestFlyweightZeroAlloc pins the receive hot path at zero allocations.
func TestFlyweightZeroAlloc(t *testing.T) {
	s := mem.NewConnSlab(8, 0)
	FlyweightOpen(s, 0, 0, 0)
	seq := uint32(0)
	if n := testing.AllocsPerRun(1000, func() {
		FlyweightRx(s, 0, seq, 256, sim.Time(seq))
		seq++
	}); n != 0 {
		t.Fatalf("FlyweightRx allocates %.1f/op", n)
	}
}
