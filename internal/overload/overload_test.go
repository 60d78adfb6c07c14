package overload

import (
	"errors"
	"reflect"
	"testing"

	"norman/internal/arch"
	"norman/internal/cache"
	"norman/internal/mem"
	"norman/internal/sim"
)

func newWorld(t *testing.T) (arch.Arch, *arch.World) {
	t.Helper()
	a := arch.New("kopi", arch.WorldConfig{RingSize: 16})
	return a, a.World()
}

// TestAdmissionBudgets walks every typed rejection path: the per-tenant cap,
// the DDIO ring budget, and the release/re-admit cycle. Each rejection must
// wrap ErrAdmission, carry the exhausted Resource, and charge nothing.
func TestAdmissionBudgets(t *testing.T) {
	_, w := newWorld(t)
	// A 4 KiB DDIO region: the 0.85 share budgets 3481 bytes, room for three
	// connections' 16 descriptor lines (1024 bytes each) and not a fourth.
	llc := cache.New(cache.Config{TotalBytes: 8192, Ways: 2, DDIOWays: 1})
	g := NewGovernor(w.Eng, w.NIC, llc, Config{MaxConnsPerTenant: 2})
	const conn, wantBudget = 16 * 64, 3481

	if used, budget := g.RingBudget(); used != 0 || budget != wantBudget {
		t.Fatalf("budget = %d/%d, want 0/%d", used, budget, wantBudget)
	}
	// Tenant 1 fills its cap.
	if err := g.AdmitConn(1); err != nil {
		t.Fatal(err)
	}
	if err := g.AdmitConn(1); err != nil {
		t.Fatal(err)
	}
	err := g.AdmitConn(1)
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("over-cap admit = %v, want ErrAdmission", err)
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Resource != ResourceTenantConns || ae.Tenant != 1 || ae.Used != 2 || ae.Budget != 2 {
		t.Fatalf("tenant rejection = %+v", ae)
	}
	// Tenant 2 takes the last budget slot; the next admit exhausts the DDIO
	// share.
	if err := g.AdmitConn(2); err != nil {
		t.Fatal(err)
	}
	err = g.AdmitConn(2)
	if !errors.As(err, &ae) || ae.Resource != ResourceRingDDIO {
		t.Fatalf("over-budget admit = %v, want ring_ddio rejection", err)
	}
	if used, _ := g.RingBudget(); used != 3*conn {
		t.Fatalf("rejections must not charge: used %d, want %d", used, 3*conn)
	}
	// Release frees both the tenant slot and the ring bytes.
	g.ReleaseConn(1)
	if err := g.AdmitConn(2); err != nil {
		t.Fatalf("admit after release = %v", err)
	}
	snap := g.Snapshot()
	if snap.Admitted != 4 || snap.RejectedTenant != 1 || snap.RejectedDDIO != 1 || snap.RejectedLoad != 0 {
		t.Fatalf("counter snapshot = %+v", snap)
	}
	if g.Rejected() != 2 {
		t.Fatalf("Rejected() = %d, want 2", g.Rejected())
	}
}

// TestNoCacheModelUnlimited: without an LLC (the ablation), ring admission
// never rejects.
func TestNoCacheModelUnlimited(t *testing.T) {
	a := arch.New("kopi", arch.WorldConfig{RingSize: 16, NoLLC: true})
	w := a.World()
	g := NewGovernor(w.Eng, w.NIC, nil, Config{})
	for i := 0; i < 10000; i++ {
		if err := g.AdmitConn(uint32(i % 7)); err != nil {
			t.Fatalf("admit %d = %v", i, err)
		}
	}
}

// TestWatchdogHysteresis drives the three-state machine through a full
// pressure cycle: ring occupancy over the high watermark escalates to
// pressured after EscalateAfter samples; draining under the low watermark
// releases only after ClearAfter calm samples; the dead band between the
// watermarks holds state (no oscillation).
func TestWatchdogHysteresis(t *testing.T) {
	a, w := newWorld(t)
	g := NewGovernor(w.Eng, w.NIC, w.LLC, Config{
		SampleEvery:   10 * sim.Microsecond,
		EscalateAfter: 2,
		ClearAfter:    3,
	})

	u := w.Kern.AddUser(1, "u")
	proc := w.Kern.Spawn(u.UID, "app")
	conn, err := a.Connect(proc, w.Flow(4000, 7))
	if err != nil {
		t.Fatal(err)
	}
	c := conn.NC
	if c == nil {
		t.Fatal("no NIC conn")
	}
	// OpenConn must have armed default watermarks at 3/4 and 1/4 of the ring.
	if hi, lo := c.RX.Watermarks(); hi != 12 || lo != 4 {
		t.Fatalf("default watermarks = %d/%d, want 12/4", hi, lo)
	}

	// Pin occupancy above the high watermark and let the watchdog sample.
	for i := 0; i < 13; i++ {
		if err := c.RX.Push(mem.Desc{}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.RX.AboveHigh() {
		t.Fatal("13/16 must be above the 12-descriptor high watermark")
	}
	g.Start(0)
	w.Eng.RunUntil(sim.Time(15 * sim.Microsecond))
	if g.State() != StateOK {
		t.Fatalf("one hot sample must not escalate yet: %v", g.State())
	}
	w.Eng.RunUntil(sim.Time(55 * sim.Microsecond))
	if g.State() != StatePressured {
		t.Fatalf("sustained occupancy must reach pressured: %v", g.State())
	}

	// Drain into the dead band (between low and high): state must hold.
	for c.RX.Len() > 8 {
		if _, err := c.RX.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	w.Eng.RunUntil(sim.Time(200 * sim.Microsecond))
	if g.State() != StatePressured {
		t.Fatalf("dead-band occupancy must hold pressured (hysteresis): %v", g.State())
	}

	// Drain under the low watermark: release after ClearAfter calm samples.
	for c.RX.Len() > 0 {
		if _, err := c.RX.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	w.Eng.RunUntil(sim.Time(215 * sim.Microsecond))
	if g.State() != StatePressured {
		t.Fatalf("one calm sample must not release yet: %v", g.State())
	}
	w.Eng.RunUntil(sim.Time(300 * sim.Microsecond))
	if g.State() != StateOK {
		t.Fatalf("sustained calm must release: %v", g.State())
	}
	if snap := g.Snapshot(); snap.Transitions != 2 {
		t.Fatalf("transitions = %d, want exactly 2 (up, down)", snap.Transitions)
	}
	g.Stop()
}

// TestWatchdogSaturatesOnDrops: new NIC drops between samples jump the raw
// reading straight to saturated; admission then rejects with the
// ingress_fifo resource until the state clears.
func TestWatchdogSaturatesOnDrops(t *testing.T) {
	_, w := newWorld(t)
	g := NewGovernor(w.Eng, w.NIC, w.LLC, Config{
		SampleEvery:   10 * sim.Microsecond,
		EscalateAfter: 1,
		ClearAfter:    2,
	})
	var edges []bool
	g.Subscribe(func(on bool) { edges = append(edges, on) })

	// Bump the NIC's drop counter before every sample for a while: the state
	// must escalate one level per sample (ok -> pressured -> saturated), and
	// the subscriber must see exactly one engage edge.
	for i := 1; i <= 6; i++ {
		w.Eng.At(sim.Time(sim.Duration(i)*10*sim.Microsecond-sim.Microsecond), func() {
			w.NIC.RxFifoDrop++
		})
	}
	g.Start(0)
	w.Eng.RunUntil(sim.Time(65 * sim.Microsecond))
	if g.State() != StateSaturated {
		t.Fatalf("sustained drops must saturate: %v", g.State())
	}
	if err := g.AdmitConn(9); !errors.Is(err, ErrAdmission) {
		t.Fatalf("saturated admit = %v, want rejection", err)
	}
	var ae *AdmissionError
	if err := g.AdmitConn(9); !errors.As(err, &ae) || ae.Resource != ResourceIngressFIFO {
		t.Fatalf("saturated rejection resource = %+v", ae)
	}

	// Quiet: drops stop, occupancy is zero -> de-escalate one level per
	// ClearAfter window, with exactly one release edge at the end.
	w.Eng.RunUntil(sim.Time(300 * sim.Microsecond))
	if g.State() != StateOK {
		t.Fatalf("quiet watchdog must recover: %v", g.State())
	}
	if len(edges) != 2 || !edges[0] || edges[1] {
		t.Fatalf("backpressure edges = %v, want [true false] (edge-triggered, not per-transition)", edges)
	}
	if snap := g.Snapshot(); snap.Signals != 2 || snap.RejectedLoad != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	g.Stop()
}

// TestShedPolicy: while saturated, the installed policy sheds only classes
// below the heaviest weight, counts every shed, and stops shedding the
// moment the state clears.
func TestShedPolicy(t *testing.T) {
	a, w := newWorld(t)
	g := NewGovernor(w.Eng, w.NIC, w.LLC, Config{
		SampleEvery:   10 * sim.Microsecond,
		EscalateAfter: 1,
		ClearAfter:    2,
	})

	u1 := w.Kern.AddUser(1, "hi")
	u2 := w.Kern.AddUser(2, "lo")
	pHi := w.Kern.Spawn(u1.UID, "hi")
	pLo := w.Kern.Spawn(u2.UID, "lo")
	fHi := w.Flow(4001, 7)
	fLo := w.Flow(4002, 7)
	cHi, err := a.Connect(pHi, fHi)
	if err != nil {
		t.Fatal(err)
	}
	cLo, err := a.Connect(pLo, fLo)
	if err != nil {
		t.Fatal(err)
	}
	// UID 1 is class 1 (weight 8, protected); UID 2 is class 2 (weight 1).
	g.InstallShedding(func(uid uint32) uint32 { return uid }, map[uint32]float64{1: 8, 2: 1})

	// Saturate via injected drops, as in the watchdog test.
	for i := 1; i <= 30; i++ {
		w.Eng.At(sim.Time(sim.Duration(i)*10*sim.Microsecond-sim.Microsecond), func() {
			w.NIC.RxFifoDrop++
		})
	}
	g.Start(0)
	w.Eng.RunUntil(sim.Time(50 * sim.Microsecond))
	if g.State() != StateSaturated {
		t.Fatalf("setup: want saturated, got %v", g.State())
	}

	// While saturated: low class shed at the MAC, high class delivered.
	for i := 0; i < 4; i++ {
		a.DeliverWire(w.UDPFrom(fHi, 128))
		a.DeliverWire(w.UDPFrom(fLo, 128))
	}
	w.Eng.RunUntil(sim.Time(250 * sim.Microsecond))
	nHi, nLo := cHi.NC, cLo.NC
	if w.NIC.RxShed != 4 || g.ShedPackets() != 4 {
		t.Fatalf("shed = nic %d / gov %d, want 4", w.NIC.RxShed, g.ShedPackets())
	}
	if nLo.RxDelivered != 0 {
		t.Fatalf("low class delivered %d frames while saturated", nLo.RxDelivered)
	}
	if nHi.RxDelivered != 4 {
		t.Fatalf("high class delivered %d/4 while saturated", nHi.RxDelivered)
	}

	// After the state clears, low-class traffic flows again.
	w.Eng.RunUntil(sim.Time(600 * sim.Microsecond))
	if g.State() != StateOK {
		t.Fatalf("want recovery, got %v", g.State())
	}
	a.DeliverWire(w.UDPFrom(fLo, 128))
	w.Eng.RunUntil(sim.Time(700 * sim.Microsecond))
	if nLo.RxDelivered != 1 {
		t.Fatalf("low class must flow after recovery: delivered %d", nLo.RxDelivered)
	}
	if w.NIC.RxShed != 4 {
		t.Fatalf("no shedding after recovery: %d", w.NIC.RxShed)
	}
	g.Stop()
}

// TestTenantSnapshotOrder pins the determinism contract on every per-tenant
// surface: TenantSnapshots, Snapshot and the metric registration walk
// sortedTenantIDs — never the tenant maps directly — so rows come out in
// ascending tenant order regardless of map insertion history, and repeated
// snapshots of unchanged state are identical.
func TestTenantSnapshotOrder(t *testing.T) {
	_, w := newWorld(t)
	g := NewGovernor(w.Eng, w.NIC, w.LLC, Config{
		TenantWeights: map[uint32]int{9: 1, 3: 7, 27: 2, 1: 4},
	})
	// Tenants 14 and 5 hold connections without being configured: they must
	// appear in the snapshot union, still in ascending order.
	for _, id := range []uint32{14, 5, 3} {
		if err := g.AdmitConn(id); err != nil {
			t.Fatalf("admit tenant %d: %v", id, err)
		}
	}

	rows := g.TenantSnapshots()
	want := []uint32{1, 3, 5, 9, 14, 27}
	if len(rows) != len(want) {
		t.Fatalf("got %d tenant rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		if row.Tenant != want[i] {
			t.Fatalf("row %d is tenant %d, want %d (rows must be ascending)", i, row.Tenant, want[i])
		}
	}
	// Configured tenants carry their weight; ad-hoc tenants default to 1.
	if rows[1].Weight != 7 || rows[1].Conns != 1 {
		t.Fatalf("tenant 3: weight %d conns %d, want 7/1", rows[1].Weight, rows[1].Conns)
	}
	if rows[2].Weight != 1 || rows[2].Conns != 1 {
		t.Fatalf("tenant 5: weight %d conns %d, want 1/1", rows[2].Weight, rows[2].Conns)
	}

	// Repeated snapshots of unchanged state must be byte-identical, and the
	// full Snapshot must embed the same rows.
	for i := 0; i < 8; i++ {
		again := g.TenantSnapshots()
		if !reflect.DeepEqual(rows, again) {
			t.Fatalf("snapshot %d differs:\n%+v\n%+v", i, rows, again)
		}
	}
	if snap := g.Snapshot(); !reflect.DeepEqual(snap.Tenants, rows) {
		t.Fatalf("Snapshot().Tenants differs from TenantSnapshots():\n%+v\n%+v", snap.Tenants, rows)
	}

	// Reconfiguration keeps surviving tenants' charges and stays sorted.
	g.ConfigureTenants(map[uint32]int{27: 1, 3: 2})
	rows = g.TenantSnapshots()
	want = []uint32{3, 5, 14, 27}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows after reconfigure, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		if row.Tenant != want[i] {
			t.Fatalf("row %d is tenant %d, want %d after reconfigure", i, row.Tenant, want[i])
		}
	}
	if rows[0].RingBytes == 0 {
		t.Fatal("tenant 3's ring charge must survive reconfiguration")
	}
}
