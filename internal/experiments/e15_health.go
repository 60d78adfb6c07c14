package experiments

import (
	"fmt"

	"norman/internal/faults"
	"norman/internal/health"
	"norman/internal/nic"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/timing"
)

// E15Point is one architecture's behaviour under the seeded hardware-fault
// schedule (DESIGN.md §11): a link flap, then a flow-cache SRAM bit-flip
// burst, then an overlay trap storm, all landing on the E14 victim workload.
// The kernel stack has no fast path to corrupt; raw bypass keeps its fast
// path but has no slow path to fail over to, so corrupted verdicts are served
// (and blackhole flows) for the rest of the run; KOPI detects the corruption
// via per-entry checksums, quarantines the cache onto the kernel
// interposition slow path, and fails back after probation.
type E15Point struct {
	Arch string

	Delivered     uint64
	CorruptServed uint64 // corrupted verdicts served to the datapath
	ChecksumFails uint64 // corrupted entries detected and dropped instead
	Quarantines   uint64
	Failbacks     uint64
	LinkDrops     uint64 // frames lost at the MAC while the link was down
	TrapFallbacks uint64

	PreHitPct  float64 // flow-cache hit rate before the SRAM burst, %
	PostHitPct float64 // hit rate in the recovery window [3·dur/4, dur), %

	Silent int64 // conservation ledger: sent − delivered − Σ drop counters
}

// The E15 fault schedule, as fractions of the run: a link flap at dur/8
// (lasting dur/32), an SRAM burst of 64 bit flips at 3·dur/8, and a storm of
// 8 overlay traps 1 µs apart at dur/2. The recovery window [3·dur/4, dur)
// starts well after KOPI's probation should have failed the cache back.
const (
	e15SRAMFlips  = 64
	e15StormTraps = 8
)

// RunE15 runs the victim workload of E14 (64 established flows, 256 B
// payloads at 12.5 Gbps through the cacheable ACL) on kernelstack, bypass and
// kopi while the fault schedule fires. Only kopi runs the health monitor —
// that is the point: the monitor's failover target is the kernel
// interposition slow path, which the other architectures do not have. Every
// cell is byte-identical at any worker width (TestExperimentTables).
func RunE15(scale Scale) ([]E15Point, *stats.Table) {
	archs := []string{"kernelstack", "bypass", "kopi"}
	points := make([]E15Point, len(archs))
	r := NewRunner()
	for i, name := range archs {
		i, name := i, name
		r.Go(func() { points[i] = e15Run(name, scale) })
	}
	r.Wait()

	t := stats.NewTable("E15: hardware faults vs the kernel slow path (link flap, SRAM flip burst, trap storm over the E14 victim workload)",
		"arch", "delivered", "corrupt srv", "ck fails", "quar", "failback",
		"link drops", "traps", "pre hit%", "post hit%", "silent")
	for _, p := range points {
		t.AddRow(p.Arch, p.Delivered, p.CorruptServed, p.ChecksumFails,
			p.Quarantines, p.Failbacks, p.LinkDrops, p.TrapFallbacks,
			fmt.Sprintf("%.1f", p.PreHitPct), fmt.Sprintf("%.1f", p.PostHitPct),
			p.Silent)
	}
	return points, t
}

// e15Run offers the victim workload on one architecture under the fault
// schedule and reports delivery, corruption and health accounting.
func e15Run(archName string, scale Scale) E15Point {
	tp := newTenantPair(archName, timing.Default())
	w := tp.w

	// The fast path exists on bypass and kopi; the kernel stack interprets
	// everything (its "cache off" row is the slow-path baseline the others
	// fail over to). Bypass runs the cache raw — no checksum verification, no
	// monitor — which is precisely the paper's complaint about unsupervised
	// offload.
	tp.loadACL("e15-acl", archName != "kernelstack")

	var hm *health.Monitor
	dur := scale.d(4 * sim.Millisecond)
	if archName == "kopi" {
		// Tight windows relative to the fault schedule: one faulty sample
		// quarantines, ~4 calm samples earn a probe, 2 more restore — so a
		// full quarantine/probe/failback cycle completes well inside the
		// recovery measurement window even at small scales.
		hm = health.New(w.Eng, w.NIC, health.Config{
			SampleEvery:    5 * sim.Microsecond,
			EscalateAfter:  1,
			ProbationAfter: 4,
			RestoreAfter:   2,
		})
		hm.Start(sim.Time(dur))
	}

	inj := faults.New(w.Eng, w.NIC, w.LLC, faults.Config{
		Seed:  FaultSeed(),
		Label: "e15." + archName,
	})
	t1 := sim.Time(dur / 8)     // link flap
	t2 := sim.Time(3 * dur / 8) // SRAM bit-flip burst
	t3 := sim.Time(dur / 2)     // trap storm
	inj.ScheduleLinkFlap(t1, dur/32)
	inj.ScheduleSRAMBurst(t2, e15SRAMFlips)
	inj.ScheduleTrapStorm(nic.Ingress, t3, e15StormTraps, sim.Microsecond, "e15-storm")

	tp.dialVictim(nil)

	tp.onDeliver(nil)

	// Hit-rate windows: a snapshot just before the SRAM burst (the pre-fault
	// fast path) and the delta over [3·dur/4, dur) (the recovered fast path —
	// for KOPI, after quarantine, probation and failback have all run).
	hits := tp.watchHits(t2, sim.Time(3*dur/4))
	_, silent := tp.run(dur, 0, 0)

	p := E15Point{
		Arch:          archName,
		Delivered:     tp.delivered,
		Silent:        silent,
		LinkDrops:     w.NIC.RxLinkDrop,
		TrapFallbacks: w.NIC.Traps(),
	}
	if fc := w.NIC.FlowCache(); fc != nil {
		p.CorruptServed = fc.CorruptServed
		p.ChecksumFails = fc.ChecksumFails
	}
	p.PreHitPct, p.PostHitPct = hits.pcts()
	if hm != nil {
		p.Quarantines = hm.Quarantines
		p.Failbacks = hm.Failbacks
	}
	return p
}
