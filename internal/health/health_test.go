package health

import (
	"testing"

	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

func newWorld(t *testing.T) (*sim.Engine, *nic.NIC) {
	t.Helper()
	eng := sim.NewEngine()
	n := nic.New(nic.Config{Engine: eng, Model: timing.Default(), SRAMBudget: 1 << 20, RingSize: 8})
	return eng, n
}

func flowKey(i int) packet.FlowKey {
	return packet.FlowKey{
		Src: packet.MakeIP(10, 0, 0, 2), Dst: packet.MakeIP(10, 0, 0, 1),
		SrcPort: uint16(40000 + i), DstPort: 80, Proto: 17,
	}
}

// TestFlowCacheQuarantineProbeFailback walks the full state machine:
// corrupted entries surface as checksum failures, sustained failures
// quarantine the cache (bypass on), calm samples probe it (bypass off), and
// continued calm restores it to healthy.
func TestFlowCacheQuarantineProbeFailback(t *testing.T) {
	eng, n := newWorld(t)
	if err := n.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	m := New(eng, n, Config{
		SampleEvery: sim.Microsecond, EscalateAfter: 2,
		ProbationAfter: 2, RestoreAfter: 2,
	})
	fc := n.FlowCache()
	if !fc.Verify() {
		t.Fatal("New must enable checksum verification")
	}

	// Three sample periods of detected corruption: install+corrupt+lookup
	// just before each of the first three ticks.
	for i := 0; i < 3; i++ {
		k := flowKey(i)
		at := sim.Duration(i)*sim.Microsecond + 500*sim.Nanosecond
		eng.After(at, func() {
			fc.Install(k, 1, 0, overlay.VerdictPass, 0, 0)
			for s := 0; s < fc.Capacity(); s++ {
				fc.Corrupt(s)
			}
			fc.Lookup(k) // detected: ChecksumFails++, entry dropped
		})
	}
	m.Start(sim.Time(20 * sim.Microsecond))
	eng.Run()

	if m.Quarantines != 1 || m.Failovers != 1 {
		t.Fatalf("quarantines=%d failovers=%d, want 1/1", m.Quarantines, m.Failovers)
	}
	if m.Probes != 1 || m.Failbacks != 1 {
		t.Fatalf("probes=%d failbacks=%d, want 1/1", m.Probes, m.Failbacks)
	}
	if n.FlowCacheBypassed() {
		t.Fatal("failback must lift the flow-cache bypass")
	}
	rows := m.Status()
	if len(rows) != 4 {
		t.Fatalf("status rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Component == FlowCache {
			if r.State != Healthy || r.Quarantines != 1 || r.Failbacks != 1 {
				t.Fatalf("flowcache row = %+v", r)
			}
		} else if r.State != Healthy || r.Quarantines != 0 {
			t.Fatalf("%s row = %+v", r.Component, r)
		}
	}
}

// TestProbationRelapseRequarantines: a fault during probation re-applies the
// quarantine action and counts a fresh quarantine event.
func TestProbationRelapseRequarantines(t *testing.T) {
	eng, n := newWorld(t)
	if err := n.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	m := New(eng, n, Config{
		SampleEvery: sim.Microsecond, EscalateAfter: 1,
		ProbationAfter: 2, RestoreAfter: 4,
	})
	fc := n.FlowCache()
	poison := func(i int) {
		k := flowKey(i)
		fc.Install(k, 1, 0, overlay.VerdictPass, 0, 0)
		for s := 0; s < fc.Capacity(); s++ {
			fc.Corrupt(s)
		}
		fc.Lookup(k)
	}
	// Fault at t≈0 (quarantine on sample 1), calm through probation entry
	// (sample 3), then fault again while probing (sample 4ish).
	eng.After(500*sim.Nanosecond, func() { poison(0) })
	eng.After(3*sim.Microsecond+500*sim.Nanosecond, func() {
		if !n.FlowCacheBypassed() {
			// Must already be probing — bypass lifted — for this to model a
			// relapse rather than a detection inside quarantine.
			poison(1)
		} else {
			t.Error("expected probe to lift the bypass before the relapse")
		}
	})
	m.Start(sim.Time(5 * sim.Microsecond))
	eng.Run()

	if m.Quarantines != 2 {
		t.Fatalf("quarantines = %d, want 2 (initial + relapse)", m.Quarantines)
	}
	if !n.FlowCacheBypassed() {
		t.Fatal("relapse must re-apply the bypass")
	}
}

// TestDMAQuarantineBoundsQueue: sustained DMA stall time clamps the ingress
// FIFO to dmaQueueBound and restores it on probe.
func TestDMAQuarantineBoundsQueue(t *testing.T) {
	eng, n := newWorld(t)
	m := New(eng, n, Config{
		SampleEvery: sim.Microsecond, EscalateAfter: 2,
		ProbationAfter: 3, RestoreAfter: 2,
	})
	before := n.RxWindow()
	// Two periods each >50% stalled.
	eng.After(100*sim.Nanosecond, func() { n.StallDMA(800 * sim.Nanosecond) })
	eng.After(1*sim.Microsecond+100*sim.Nanosecond, func() { n.StallDMA(800 * sim.Nanosecond) })
	var clamped int
	eng.After(2*sim.Microsecond+500*sim.Nanosecond, func() { clamped = n.RxWindow() })
	m.Start(sim.Time(10 * sim.Microsecond))
	eng.Run()

	if before <= dmaQueueBound || clamped != dmaQueueBound {
		t.Fatalf("rx window %d, quarantined %d; want it clamped to %d", before, clamped, dmaQueueBound)
	}
	if n.RxWindow() != before {
		t.Fatalf("probe must restore the rx window: %d != %d", n.RxWindow(), before)
	}
	if m.Quarantines != 1 || m.Failbacks != 1 {
		t.Fatalf("quarantines=%d failbacks=%d", m.Quarantines, m.Failbacks)
	}
}

// TestLinkFlapTracksState: a down link is a level signal — quarantined while
// down, probed and restored after it comes back.
func TestLinkFlapTracksState(t *testing.T) {
	eng, n := newWorld(t)
	m := New(eng, n, Config{
		SampleEvery: sim.Microsecond, EscalateAfter: 2,
		ProbationAfter: 2, RestoreAfter: 2,
	})
	eng.After(500*sim.Nanosecond, func() { n.SetLink(false) })
	eng.After(4*sim.Microsecond, func() { n.SetLink(true) })
	m.Start(sim.Time(12 * sim.Microsecond))
	eng.Run()

	var link ComponentStatus
	for _, r := range m.Status() {
		if r.Component == Link {
			link = r
		}
	}
	if link.Quarantines != 1 || link.State != Healthy || link.Failbacks != 1 {
		t.Fatalf("link row = %+v", link)
	}
	if link.Signals < 2 {
		t.Fatalf("link signals = %d, want >=2 down samples", link.Signals)
	}
}

// TestPipelineQuarantineReinstallsLastGood: a trap storm rolls the ingress
// pipeline back to its last-good chain.
func TestPipelineQuarantineReinstallsLastGood(t *testing.T) {
	eng, n := newWorld(t)
	good, err := overlay.Assemble("good", "pass\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.LoadProgram(nic.Ingress, good); err != nil {
		t.Fatal(err)
	}
	next, err := overlay.Assemble("next", "pass\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.LoadProgram(nic.Ingress, next); err != nil {
		t.Fatal(err)
	}
	m := New(eng, n, Config{SampleEvery: sim.Microsecond, EscalateAfter: 2})
	// Fake sustained trap activity: bump the counter across two periods.
	eng.After(500*sim.Nanosecond, func() { n.TrapFallbacks++ })
	eng.After(1*sim.Microsecond+500*sim.Nanosecond, func() { n.TrapFallbacks++ })
	m.Start(sim.Time(3 * sim.Microsecond))
	eng.Run()

	if m.Quarantines != 1 {
		t.Fatalf("quarantines = %d", m.Quarantines)
	}
	if cur := n.Machine(nic.Ingress); cur == nil || cur.Program() != good {
		t.Fatal("pipeline quarantine must reinstall the last-good chain")
	}
}

// TestMonitorDeterminism: two identically seeded runs produce identical
// status snapshots (the chaos-soak fingerprint precondition).
func TestMonitorDeterminism(t *testing.T) {
	run := func() []ComponentStatus {
		eng, n := newWorld(t)
		if err := n.EnableFlowCache(64); err != nil {
			t.Fatal(err)
		}
		m := New(eng, n, Config{SampleEvery: sim.Microsecond, EscalateAfter: 1})
		fc := n.FlowCache()
		eng.After(300*sim.Nanosecond, func() {
			k := flowKey(0)
			fc.Install(k, 1, 0, overlay.VerdictPass, 0, 0)
			fc.Corrupt(0)
			fc.Corrupt(1)
			fc.Lookup(k)
		})
		eng.After(2*sim.Microsecond, func() { n.SetLink(false) })
		m.Start(sim.Time(8 * sim.Microsecond))
		eng.Run()
		return m.Status()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
