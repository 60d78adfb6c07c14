package faults

import (
	"testing"
	"time"

	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/telemetry"
	"norman/internal/timing"
)

func testNIC() (*nic.NIC, *sim.Engine) {
	eng := sim.NewEngine()
	n := nic.New(nic.Config{Engine: eng, Model: timing.Default(), SRAMBudget: 1 << 20, RingSize: 8})
	return n, eng
}

func frame() *packet.Packet {
	return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, packet.MakeIP(10, 0, 0, 1),
		packet.MakeIP(10, 0, 0, 2), 99, 80, 64)
}

// feed pushes count frames through a Tx wrapper and returns delivered count.
func feed(inj *Injector, eng *sim.Engine, count int) int {
	delivered := 0
	tx := inj.WrapTx(func(*packet.Packet, sim.Time) { delivered++ })
	for i := 0; i < count; i++ {
		tx(frame(), eng.Now())
	}
	eng.Run() // flush delayed (reordered/duplicated) deliveries
	return delivered
}

func TestWireFaultsCount(t *testing.T) {
	n, eng := testNIC()
	inj := New(eng, n, nil, Config{
		Seed:  1,
		Label: "t",
		Tx:    WireConfig{Loss: 0.1, Corrupt: 0.05, Reorder: 0.1, Duplicate: 0.1},
	})
	const total = 2000
	delivered := feed(inj, eng, total)

	if inj.Tx.Frames != total {
		t.Fatalf("frames = %d", inj.Tx.Frames)
	}
	for name, c := range map[string]uint64{
		"lost": inj.Tx.Lost, "corrupted": inj.Tx.Corrupted,
		"reordered": inj.Tx.Reordered, "duplicated": inj.Tx.Duplicated,
	} {
		if c == 0 {
			t.Fatalf("%s never fired over %d frames", name, total)
		}
	}
	want := total - int(inj.Tx.Dropped()) + int(inj.Tx.Duplicated)
	if delivered != want {
		t.Fatalf("delivered %d, want %d (dropped %d, dup %d)",
			delivered, want, inj.Tx.Dropped(), inj.Tx.Duplicated)
	}
	// Loose sanity on rates: each should land within 3x of its target.
	if lost := float64(inj.Tx.Lost); lost < total*0.1/3 || lost > total*0.1*3 {
		t.Fatalf("loss rate off: %d/%d", inj.Tx.Lost, total)
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	n, eng := testNIC()
	inj := New(eng, n, nil, Config{Seed: 1, Label: "t"})
	if delivered := feed(inj, eng, 100); delivered != 100 {
		t.Fatalf("clean config dropped frames: %d/100", delivered)
	}
	if inj.Tx.Dropped() != 0 || inj.Tx.Duplicated != 0 || inj.Tx.Reordered != 0 {
		t.Fatalf("clean config recorded faults: %+v", inj.Tx)
	}
}

// TestSameSeedSameFaults is the determinism contract: identical seed and
// label replay the identical fault pattern.
func TestSameSeedSameFaults(t *testing.T) {
	runOnce := func(seed int64) WireStats {
		n, eng := testNIC()
		inj := New(eng, n, nil, Config{
			Seed: seed, Label: "det",
			Tx: WireConfig{Loss: 0.2, Reorder: 0.1, Duplicate: 0.1},
		})
		feed(inj, eng, 1000)
		return inj.Tx
	}
	a, b := runOnce(7), runOnce(7)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if c := runOnce(8); a == c {
		t.Fatalf("different seeds produced identical fault pattern: %+v", a)
	}
}

func TestRingPressureBursts(t *testing.T) {
	n, eng := testNIC()
	normal := n.RxWindow()
	inj := New(eng, n, nil, Config{
		Seed: 1, Label: "ring",
		Ring: RingConfig{Period: 100 * sim.Microsecond, Burst: 10 * sim.Microsecond, Window: 1},
	})
	inj.Start(sim.Time(1 * sim.Millisecond))

	squeezed := false
	eng.At(sim.Time(105*sim.Microsecond), func() {
		squeezed = n.RxWindow() == 1
	})
	eng.RunUntil(sim.Time(2 * sim.Millisecond))

	if !squeezed {
		t.Fatal("burst never squeezed the RX window")
	}
	if n.RxWindow() != normal {
		t.Fatalf("window not restored after bursts: %d vs %d", n.RxWindow(), normal)
	}
	if inj.RingBursts == 0 || inj.RingBursts > 10 {
		t.Fatalf("bursts = %d, want ~10 within the 1ms horizon", inj.RingBursts)
	}
}

func TestScheduleOverlayTrap(t *testing.T) {
	n, eng := testNIC()
	prog, err := overlay.Assemble("p", "pass\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.LoadProgram(nic.Ingress, prog); err != nil {
		t.Fatal(err)
	}
	inj := New(eng, n, nil, Config{Seed: 1, Label: "trap"})
	inj.ScheduleOverlayTrap(nic.Ingress, sim.Time(10*sim.Microsecond), "boom")
	eng.Run()
	if inj.OverlayTraps != 1 {
		t.Fatalf("OverlayTraps = %d", inj.OverlayTraps)
	}
	if _, _, err := n.Machine(nic.Ingress).Run(frame(), overlay.NopEnv{}); err == nil {
		t.Fatal("armed trap did not fire")
	}
}

func TestBackoffShape(t *testing.T) {
	base, max := 50*time.Millisecond, time.Second
	for attempt := 0; attempt < 10; attempt++ {
		d := Backoff(base, max, attempt)
		if d < base/2 || d > max {
			t.Fatalf("attempt %d: %v outside [base/2, max]", attempt, d)
		}
		if d != Backoff(base, max, attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
	}
	// The cap binds: large attempts never exceed max.
	if d := Backoff(base, max, 50); d > max {
		t.Fatalf("uncapped backoff: %v", d)
	}
	// Zero-value arguments resolve to sane defaults.
	if d := Backoff(0, 0, 0); d <= 0 || d > time.Second {
		t.Fatalf("default backoff: %v", d)
	}
}

// TestFaultTraceNotesDirection: a fault on a traced frame is a span event
// whose note names the direction, in both directions, while an untraced
// frame's fault builds and records nothing (AllocsPerRun: the note is built
// only for a tracer).
func TestFaultTraceNotesDirection(t *testing.T) {
	n, eng := testNIC()
	inj := New(eng, n, nil, Config{Seed: 1, Label: "t", Tx: WireConfig{Loss: 1}, Rx: WireConfig{Loss: 1}})
	tr := telemetry.NewTracer(8)
	inj.SetTracer(tr)
	tx := inj.WrapTx(nil)
	rx := inj.WrapRx(nil)
	for _, c := range []struct {
		dir  string
		send func(*packet.Packet)
	}{{"tx", func(p *packet.Packet) { tx(p, eng.Now()) }}, {"rx", rx}} {
		p := frame()
		p.Meta.Trace = tr.StampID()
		c.send(p)
		ev := tr.Trace(p.Meta.Trace)
		if len(ev) != 1 || ev[0].Layer != "faults" || ev[0].Point != "wire_lost" || ev[0].Note != "dir="+c.dir {
			t.Fatalf("%s: span events %v, want one faults/wire_lost dir=%s", c.dir, ev, c.dir)
		}
	}
	p := frame()
	if allocs := testing.AllocsPerRun(100, func() { tx(p, eng.Now()) }); allocs != 0 {
		t.Fatalf("losing an untraced frame allocates %.1f times", allocs)
	}
}
