package norman_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"norman"
	"norman/internal/arch"
	"norman/internal/faults"
	"norman/internal/health"
	"norman/internal/nic"
	"norman/internal/overload"
	"norman/internal/recovery"
	"norman/internal/sim"
	"norman/internal/upgrade"
)

// chaosResult is the fingerprint one soak run leaves behind: every externally
// visible count the composed subsystems produce. Two runs of the same seeded
// schedule must produce identical fingerprints.
type chaosResult struct {
	Delivered         int
	AdmissionRejected int
	DownRejected      int

	TxLost      uint64
	TxCorrupted uint64
	TxReordered uint64
	RingBursts  uint64

	Admitted    uint64
	Transitions uint64
	Signals     uint64
	Shed        uint64

	ReportClean      bool
	ReportInvariants bool
	ReportRejected   int
	RulesAfter       int

	// PR 9 hardware-fault layer: injected fault counts, detection counters
	// and the full health-monitor snapshot (per-component rows included).
	LinkFlaps     uint64
	SRAMFlips     uint64
	DMAStalls     uint64
	TrapStorms    uint64
	CkFails       uint64
	CorruptServed uint64
	LinkDrops     uint64
	Health        norman.HealthStatus

	// PR 10 live-upgrade layer: the full status row — phase, generation and
	// every counter — after two mid-chaos upgrades (one crashed canary, one
	// clean commit).
	Upgrade norman.UpgradeStatus
}

// chaosRun composes the three robustness layers this repo has grown — the
// PR 2 fault injector (wire loss/corrupt/reorder + ring-pressure bursts),
// the PR 4 crash/recovery machinery (control-plane kill + journal replay +
// reconciliation), and the overload governor (admission, watchdog,
// priority shedding) — into one seeded virtual-time schedule.
func chaosRun(t *testing.T) chaosResult {
	t.Helper()
	const horizon = 5 * sim.Millisecond

	sys := norman.New(norman.KOPI)
	sys.EnableRecovery()
	sys.EnableTelemetry()
	gov := sys.EnableOverload(overload.Config{
		MaxConnsPerTenant: 8,
		SampleEvery:       10 * sim.Microsecond,
		EscalateAfter:     1,
		ClearAfter:        2,
	})
	sys.UseEchoPeer()

	// The PR 9 hardware layer: a flow cache with entries worth corrupting, a
	// cacheable ingress program worth storming, and the health monitor that
	// quarantines whichever component the schedule below degrades.
	if err := sys.EnableFlowCache(256); err != nil {
		t.Fatal(err)
	}
	hm := sys.EnableHealth(health.Config{
		SampleEvery:    10 * sim.Microsecond,
		EscalateAfter:  1,
		ProbationAfter: 4,
		RestoreAfter:   2,
	})
	// The PR 10 live-upgrade layer: a 300µs canary window so the first
	// upgrade's canary is still open when the control plane dies under it.
	sys.EnableLiveUpgrade(upgrade.Config{CanaryWindow: 300 * sim.Microsecond})

	w := sys.World()
	inj := faults.New(w.Eng, w.NIC, w.LLC, faults.Config{
		Seed:  7,
		Label: "chaos",
		Tx:    faults.WireConfig{Loss: 0.05, Corrupt: 0.02, Reorder: 0.03, Duplicate: 0.02},
		Ring:  faults.RingConfig{Period: 250 * sim.Microsecond, Window: 1, DDIOLines: 2048},
	})
	inj.AttachTx()
	// The hardware fault schedule, interleaved with the crash/restart: a link
	// flap well before the crash, an SRAM bit-flip burst after the restart
	// has replayed the journal (so the burst corrupts a cache repopulated
	// through recovery), a trap storm landing inside the flow-cache
	// quarantine window (while the slow path is actually running the stormed
	// machine), and a DMA stall near the end. Every class trips the monitor
	// at least once.
	inj.ScheduleLinkFlap(sim.Time(600*sim.Microsecond), 50*sim.Microsecond)
	inj.ScheduleSRAMBurst(sim.Time(2500*sim.Microsecond), 128)
	inj.ScheduleTrapStorm(nic.Ingress, sim.Time(2530*sim.Microsecond), 3, 2*sim.Microsecond, "chaos-storm")
	inj.ScheduleDMAStall(sim.Time(3800*sim.Microsecond), 100*sim.Microsecond)

	hi := sys.AddUser(1000, "hi")
	lo := sys.AddUser(1001, "lo")
	hiApp := sys.Spawn(hi, "hi-svc")
	loApp := sys.Spawn(lo, "lo-svc")

	// The qdisc arms both egress WFQ and the governor's ingress shedding:
	// class 1 (weight 8) is protected, class 2 (weight 1) is shed first.
	if err := sys.TCSet(norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 8, 2: 1},
		ClassOfUID: map[uint32]uint32{hi.UID: 1, lo.UID: 2}}); err != nil {
		t.Fatal(err)
	}
	// A filter rule installed pre-crash: the reconciler must carry it across.
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{Proto: "udp", DstPort: 9999, Action: "drop"}); err != nil {
		t.Fatal(err)
	}
	// An ingress filter rule: its compiled program is flow-invariant, so the
	// flow cache memoizes verdicts under it — the entries the SRAM burst
	// corrupts and the machine the trap storm arms traps into. Installed via
	// iptables (not a raw LoadProgram) so the journal replay reinstalls it
	// across the crash.
	if err := sys.IPTablesAppend(norman.Input, norman.Rule{Proto: "udp", DstPort: 9990, Action: "drop"}); err != nil {
		t.Fatal(err)
	}

	// Admission under budget: the low tenant offers 12 connections against
	// its 8-conn cap — exactly 4 must bounce with the typed error.
	res := chaosResult{}
	var conns []*norman.Conn
	for i := 0; i < 4; i++ {
		c, err := sys.Dial(hiApp, uint16(41000+i), 7)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	for i := 0; i < 12; i++ {
		c, err := sys.Dial(loApp, uint16(42000+i), 7)
		if err != nil {
			if !errors.Is(err, norman.ErrAdmission) {
				t.Fatalf("low-tenant dial %d = %v, want ErrAdmission", i, err)
			}
			res.AdmissionRejected++
			continue
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		c.OnReceive(func(norman.Delivery) { res.Delivered++ })
	}

	// Echo traffic across the whole horizon, spanning the outage.
	for i := 0; i < 1000; i++ {
		c := conns[i%len(conns)]
		sys.At(sim.Duration(i)*4*sim.Microsecond, func() { c.Send(512) })
	}

	// A same-policy live upgrade whose canary window straddles the crash
	// below: the control plane dies while watching, and the manager must
	// roll the flip back rather than leave an unsupervised generation live.
	sys.At(1400*sim.Microsecond, func() {
		if err := sys.StartLiveUpgrade(); err != nil {
			t.Errorf("upgrade 1: %v", err)
		}
	})

	// Kill the control plane mid-traffic; mutations bounce typed while it is
	// down; the restart replays the journal under ongoing wire faults and
	// ring pressure.
	var rep *recovery.Report
	sys.At(1500*sim.Microsecond, func() {
		if err := sys.CrashControlPlane(); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	sys.At(1700*sim.Microsecond, func() {
		if err := sys.IPTablesAppend(norman.Input, norman.Rule{Action: "count"}); errors.Is(err, norman.ErrControlPlaneDown) {
			res.DownRejected++
		}
		if _, err := sys.Dial(loApp, 43000, 7); errors.Is(err, norman.ErrControlPlaneDown) {
			res.DownRejected++
		}
	})
	sys.At(2100*sim.Microsecond, func() {
		r, err := sys.RestartControlPlane()
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		rep = r
	})

	// The second upgrade, after the restart: with the control plane healthy
	// and the wire faults still live, this canary must ride out its window
	// and commit — faults on the wire are not faults in the generation.
	sys.At(3000*sim.Microsecond, func() {
		if err := sys.StartLiveUpgrade(); err != nil {
			t.Errorf("upgrade 2: %v", err)
		}
	})

	gov.Start(sim.Time(horizon))
	hm.Start(sim.Time(horizon))
	inj.Start(sim.Time(horizon))
	sys.RunFor(horizon)
	sys.Run() // drain in-flight echoes; the watchdog is paused for the drain
	assertJobsReturned(t, w)

	res.TxLost = inj.Tx.Lost
	res.TxCorrupted = inj.Tx.Corrupted
	res.TxReordered = inj.Tx.Reordered
	res.RingBursts = inj.RingBursts
	res.LinkFlaps = inj.LinkFlaps
	res.SRAMFlips = inj.SRAMFlips
	res.DMAStalls = inj.DMAStalls
	res.TrapStorms = inj.TrapStorms
	if fc := w.NIC.FlowCache(); fc != nil {
		res.CkFails = fc.ChecksumFails
		res.CorruptServed = fc.CorruptServed
	}
	res.LinkDrops = w.NIC.RxLinkDrop
	res.Health = sys.HealthStatus()
	res.Upgrade = sys.UpgradeStatus()

	snap := gov.Snapshot()
	res.Admitted = snap.Admitted
	res.Transitions = snap.Transitions
	res.Signals = snap.Signals
	res.Shed = snap.ShedPackets

	if rep == nil {
		t.Fatal("the restart never ran")
	}
	res.ReportClean = rep.Clean
	res.ReportInvariants = rep.InvariantsOK
	res.ReportRejected = rep.Rejected
	res.RulesAfter = len(sys.IPTablesList())
	return res
}

// assertJobsReturned is the soak's record-lifetime gate: once the dataplane
// has drained (what is still queued is control-plane timers), every datapath
// job the NIC took — through faults, crashes, link flaps, trap storms,
// quarantines and live upgrades — is back on its free list. A record still
// out is a frame the NIC lost track of.
func assertJobsReturned(t *testing.T, w *arch.World) {
	t.Helper()
	if out := w.NIC.JobsOutstanding(); out != 0 {
		t.Errorf("%d datapath jobs outstanding after the soak drained", out)
	}
}

// TestChaosSoak is the composition gate: faults, crash recovery and overload
// control running in the same world must not break each other's invariants,
// and the whole composed schedule must stay deterministic.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak composes three subsystems over a 5ms schedule; skipped in -short")
	}
	r := chaosRun(t)

	// Admission stayed typed under pressure: 12 offered against the 8 cap.
	if r.AdmissionRejected != 4 {
		t.Errorf("admission rejected = %d, want 4", r.AdmissionRejected)
	}
	if r.Admitted != 12 {
		t.Errorf("admitted = %d, want 12 (4 hi + 8 lo)", r.Admitted)
	}
	// The outage refused both mutation kinds with the typed error, and the
	// reconciler counted them.
	if r.DownRejected != 2 {
		t.Errorf("typed down-rejections = %d, want 2", r.DownRejected)
	}
	if r.ReportRejected < 2 {
		t.Errorf("report rejected = %d, want >= 2", r.ReportRejected)
	}
	// Recovery invariants hold even with wire faults and ring bursts live.
	if !r.ReportClean || !r.ReportInvariants {
		t.Errorf("restart under pressure must reconcile clean with invariants ok: %+v", r)
	}
	if r.RulesAfter != 2 {
		t.Errorf("rules after recovery = %d, want both pre-crash rules", r.RulesAfter)
	}
	// The faults actually bit, and traffic still flowed through all of it.
	if r.TxLost == 0 || r.TxCorrupted == 0 || r.RingBursts == 0 {
		t.Errorf("fault layer idle: %+v", r)
	}
	if r.Delivered == 0 {
		t.Error("no echoes delivered through the chaos")
	}
	// The watchdog saw the ring bursts and cycled.
	if r.Transitions == 0 || r.Signals == 0 {
		t.Errorf("watchdog never reacted to pressure: %+v", r)
	}
	// Every hardware fault class fired and left its mark.
	if r.LinkFlaps != 1 || r.DMAStalls != 1 || r.TrapStorms != 1 {
		t.Errorf("hardware schedule incomplete: flaps=%d stalls=%d storms=%d, want 1 each",
			r.LinkFlaps, r.DMAStalls, r.TrapStorms)
	}
	if r.SRAMFlips == 0 {
		t.Error("the SRAM burst corrupted no live entries")
	}
	if r.LinkDrops == 0 {
		t.Error("the link flap dropped no frames at the MAC")
	}
	// Detection, not service: with the monitor's checksum verification on,
	// every corrupted entry is caught before its verdict is served.
	if r.CkFails == 0 {
		t.Error("corrupted entries were never detected")
	}
	if r.CorruptServed != 0 {
		t.Errorf("%d corrupted verdicts served past verification", r.CorruptServed)
	}
	// The monitor cycled: link, flowcache and dma each quarantined and (the
	// faults being transient) failed back; the rows cover all four components.
	if !r.Health.Enabled {
		t.Fatal("health monitor not enabled")
	}
	if r.Health.Quarantines < 3 || r.Health.Failbacks < 3 {
		t.Errorf("health events: %d quarantines / %d failbacks, want >= 3 each: %+v",
			r.Health.Quarantines, r.Health.Failbacks, r.Health)
	}
	if len(r.Health.Components) != 4 {
		t.Fatalf("health rows = %d, want 4: %+v", len(r.Health.Components), r.Health.Components)
	}
	// The upgrade layer rode through the chaos: the first flip's canary was
	// orphaned by the crash and rolled back, the second committed cleanly
	// under live wire faults, and the same-policy flips warm-transferred the
	// flow cache both ways.
	if !r.Upgrade.Enabled {
		t.Fatal("live-upgrade subsystem not enabled")
	}
	if r.Upgrade.Upgrades != 2 || r.Upgrade.Commits != 1 || r.Upgrade.Rollbacks != 1 {
		t.Errorf("upgrade events: %d flips / %d commits / %d rollbacks, want 2/1/1: %+v",
			r.Upgrade.Upgrades, r.Upgrade.Commits, r.Upgrade.Rollbacks, r.Upgrade)
	}
	if r.Upgrade.Phase != "committed" {
		t.Errorf("final upgrade phase = %q, want committed", r.Upgrade.Phase)
	}
	if r.Upgrade.LastRollback == "" {
		t.Error("the crashed canary must record its rollback reason")
	}
	if r.Upgrade.WarmEntries == 0 {
		t.Error("same-policy flips must warm-transfer flow-cache entries")
	}
	if r.Upgrade.PauseDrops != 0 {
		t.Errorf("cutover pause overflowed %d frames", r.Upgrade.PauseDrops)
	}

	// And the entire composition is deterministic: a second execution of the
	// same seeded schedule leaves a byte-identical fingerprint.
	if r2 := chaosRun(t); !reflect.DeepEqual(r, r2) {
		t.Errorf("chaos soak not deterministic:\nrun1 %+v\nrun2 %+v", r, r2)
	}
	// And it is the same fingerprint every build has produced since the golden
	// was cut: a refactor of anything under the soak reproduces it byte for
	// byte or says why not.
	checkGoldenLine(t, "chaos", fmt.Sprintf("%+v", r))
}

// checkGoldenLine compares got with the "key: …" line of testdata/chaos.golden
// (both soaks run fixed seeds, so their %+v fingerprints are constants of the
// code). A deliberate behaviour change regenerates a line by deleting it (or
// the file) and running the test once: a missing line is appended from got and
// the run fails so the new value gets reviewed, never silently adopted.
func checkGoldenLine(t *testing.T, key, got string) {
	t.Helper()
	path := filepath.Join("testdata", "chaos.golden")
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	prefix := key + ": "
	for _, line := range strings.Split(string(data), "\n") {
		if want, ok := strings.CutPrefix(line, prefix); ok {
			if got != want {
				t.Errorf("%s %q differs from the golden:\n got: %s\nwant: %s", path, key, got, want)
			}
			return
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, prefix+got+"\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("%s had no %q line: appended it from this run; review and commit it", path, key)
}

// chaosTenantResult fingerprints one adversarial-tenant soak: per-tenant
// delivery and rejection counts plus the full merged tenant status rows.
type chaosTenantResult struct {
	VicDelivered int
	AdvDelivered int
	AdvRejected  int
	DownRejected int

	TxLost      uint64
	TxCorrupted uint64
	RingBursts  uint64

	ReportClean      bool
	ReportInvariants bool
	Tenants          []norman.TenantStatus
}

// chaosTenantRun layers the PR 7 isolation machinery under the chaos
// schedule: a weighted-scheduler world where a noisy tenant floods elephant
// flows through wire faults and a control-plane crash/restart, while a
// victim tenant keeps a steady trickle. The fingerprint includes the merged
// TenantsStatus rows, so any map-order or accounting nondeterminism in the
// scheduler, cache partition or governor shows up as a DeepEqual failure.
func chaosTenantRun(t *testing.T) chaosTenantResult {
	t.Helper()
	const horizon = 5 * sim.Millisecond

	sys := norman.New(norman.KOPI)
	sys.EnableRecovery()
	sys.EnableOverload(overload.Config{
		MaxConnsPerTenant: 24,
		SampleEvery:       10 * sim.Microsecond,
		EscalateAfter:     1,
		ClearAfter:        2,
	})
	if err := sys.EnableTenantIsolation(map[uint32]int{1: 7, 2: 1}); err != nil {
		t.Fatal(err)
	}
	sys.UseEchoPeer()

	w := sys.World()
	inj := faults.New(w.Eng, w.NIC, w.LLC, faults.Config{
		Seed:  7,
		Label: "chaos-tenant",
		Tx:    faults.WireConfig{Loss: 0.05, Corrupt: 0.02, Reorder: 0.03},
		Ring:  faults.RingConfig{Period: 250 * sim.Microsecond, Window: 1, DDIOLines: 2048},
	})
	inj.AttachTx()

	vic := sys.AddUser(1000, "victim")
	adv := sys.AddUser(1001, "adversary")
	sys.AssignTenant(vic, 1)
	sys.AssignTenant(adv, 2)
	vicApp := sys.Spawn(vic, "victim-svc")
	advApp := sys.Spawn(adv, "adversary-svc")

	res := chaosTenantResult{}
	var vicConns, advConns []*norman.Conn
	for i := 0; i < 8; i++ {
		c, err := sys.Dial(vicApp, uint16(41000+i), 7)
		if err != nil {
			t.Fatal(err)
		}
		c.OnReceive(func(norman.Delivery) { res.VicDelivered++ })
		vicConns = append(vicConns, c)
	}
	// The adversary offers well past its weight-1 DDIO ring share (which
	// bites before the 24-conn cap); the excess must bounce typed, and the
	// victim's dials above were untouched by it.
	for i := 0; i < 32; i++ {
		c, err := sys.Dial(advApp, uint16(42000+i), 7)
		if err != nil {
			if !errors.Is(err, norman.ErrAdmission) {
				t.Fatalf("adversary dial %d = %v, want ErrAdmission", i, err)
			}
			res.AdvRejected++
			continue
		}
		c.OnReceive(func(norman.Delivery) { res.AdvDelivered++ })
		advConns = append(advConns, c)
	}

	// The victim trickles; the adversary floods full frames 4x as fast.
	for i := 0; i < 500; i++ {
		c := vicConns[i%len(vicConns)]
		sys.At(sim.Duration(i)*8*sim.Microsecond, func() { c.Send(256) })
	}
	for i := 0; i < 2000; i++ {
		c := advConns[i%len(advConns)]
		sys.At(sim.Duration(i)*2*sim.Microsecond, func() { c.Send(1460) })
	}

	// Crash/restart mid-flood: the journal replays under the adversary's
	// pressure and the tenant machinery survives the control-plane bounce.
	var rep *recovery.Report
	sys.At(1500*sim.Microsecond, func() {
		if err := sys.CrashControlPlane(); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	sys.At(1700*sim.Microsecond, func() {
		if _, err := sys.Dial(advApp, 43000, 7); errors.Is(err, norman.ErrControlPlaneDown) {
			res.DownRejected++
		}
	})
	sys.At(2100*sim.Microsecond, func() {
		r, err := sys.RestartControlPlane()
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		rep = r
	})

	inj.Start(sim.Time(horizon))
	sys.RunFor(horizon)
	sys.Run()
	assertJobsReturned(t, w)

	res.TxLost = inj.Tx.Lost
	res.TxCorrupted = inj.Tx.Corrupted
	res.RingBursts = inj.RingBursts
	if rep == nil {
		t.Fatal("the restart never ran")
	}
	res.ReportClean = rep.Clean
	res.ReportInvariants = rep.InvariantsOK
	res.Tenants = sys.TenantsStatus()
	return res
}

// TestChaosAdversarialTenant gates the isolation machinery's composition with
// the chaos layers: the noisy tenant's excess bounces typed, the victim's
// echoes keep flowing through faults and the crash, the weighted scheduler's
// grant split favors whoever offered more without starving the other, and
// the complete fingerprint — including every merged TenantsStatus row — is
// byte-identical across two executions of the same seeded schedule.
func TestChaosAdversarialTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial-tenant soak runs a 5ms composed schedule; skipped in -short")
	}
	r := chaosTenantRun(t)

	if r.AdvRejected != 19 {
		t.Errorf("adversary rejected = %d, want 19 (32 offered vs the weight-1 DDIO ring share)", r.AdvRejected)
	}
	if r.DownRejected != 1 {
		t.Errorf("typed down-rejections = %d, want 1", r.DownRejected)
	}
	if !r.ReportClean || !r.ReportInvariants {
		t.Errorf("restart under adversarial load must reconcile clean: %+v", r)
	}
	if r.TxLost == 0 || r.TxCorrupted == 0 || r.RingBursts == 0 {
		t.Errorf("fault layer idle: %+v", r)
	}
	// Both tenants made progress: the adversary could not starve the victim,
	// and the scheduler did not starve the adversary either.
	if r.VicDelivered == 0 || r.AdvDelivered == 0 {
		t.Errorf("deliveries vic=%d adv=%d, want both nonzero", r.VicDelivered, r.AdvDelivered)
	}
	// The merged status rows cover exactly the two tenants, in order, and the
	// scheduler actually granted both.
	if len(r.Tenants) != 2 || r.Tenants[0].Tenant != 1 || r.Tenants[1].Tenant != 2 {
		t.Fatalf("tenant rows = %+v, want tenants 1 and 2", r.Tenants)
	}
	if r.Tenants[0].PipeGrants == 0 || r.Tenants[1].PipeGrants == 0 {
		t.Errorf("pipe grants vic=%d adv=%d, want both nonzero",
			r.Tenants[0].PipeGrants, r.Tenants[1].PipeGrants)
	}
	if r.Tenants[0].Weight != 7 || r.Tenants[1].Weight != 1 {
		t.Errorf("weights = %d/%d, want 7/1", r.Tenants[0].Weight, r.Tenants[1].Weight)
	}

	if r2 := chaosTenantRun(t); !reflect.DeepEqual(r, r2) {
		t.Errorf("adversarial-tenant soak not deterministic:\nrun1 %+v\nrun2 %+v", r, r2)
	}
	checkGoldenLine(t, "tenant", fmt.Sprintf("%+v", r))
}
