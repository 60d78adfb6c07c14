package experiments

import (
	"fmt"
	"strings"

	"norman/internal/arch"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/timing"
	"norman/internal/upgrade"
)

// E16Point is one architecture's behaviour through a mid-run dataplane
// upgrade (DESIGN.md §12): the E13/E14 victim workload (64 established flows,
// 256 B payloads at 12.5 Gbps through the cacheable ACL) is running when the
// operator ships a new policy at dur/4. The kernel stack swaps software
// in place (nothing offloaded, nothing to respin). Raw bypass must respin the
// bitstream — §4.4's "equivalent to upgrading the kernel" — and eats the full
// outage: every frame for the rest of the run is an outage drop and every
// connection is broken. KOPI stages the new generation, flips at a packet
// boundary behind a bounded pause buffer, canaries, and commits: zero broken
// connections, zero pause overflow, a latency blip bounded by the pause. At
// 5·dur/8 KOPI alone stages a *bad* generation (drop-all): the canary breaches
// on the ingress-drop rate and automatically rolls back to the committed one,
// warm-restoring the flow cache so the fast-path hit rate recovers to its
// pre-upgrade level.
type E16Point struct {
	Arch string

	Delivered     uint64
	OutageDrops   uint64 // frames eaten by the bitstream-reload blackout
	PauseBuffered uint64 // frames held and replayed across cutovers
	PauseDrops    uint64 // pause-buffer overflow (typed, never silent)
	WarmEntries   uint64 // flow-cache entries warm-restored by the rollback

	Rollbacks      uint64
	CanaryBreaches uint64
	BrokenConns    int // conns with zero deliveries in [3·dur/4, dur)

	PreHitPct  float64 // flow-cache hit rate before the upgrade, %
	PostHitPct float64 // hit rate in the recovery window [3·dur/4, dur), %
	MaxGapUs   float64 // worst inter-delivery gap across the whole run, µs

	Silent int64 // conservation ledger: sent − delivered − Σ drop counters
}

// e16ACLv2Source is the upgraded policy: same shape as the E14 ACL (so it
// stays cacheable) with a different blocklist and mark — a realistic policy
// rev, not a no-op reload. None of its blocked ports match the victim flows.
func e16ACLv2Source() string {
	var b strings.Builder
	b.WriteString("ldf r0, dst_port\n")
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&b, "jeq r0, %d, blocked\n", 9100+i)
	}
	b.WriteString("ldi r2, 9\n")
	b.WriteString("setf mark, r2\n")
	b.WriteString("pass\n")
	b.WriteString("blocked:\n")
	b.WriteString("drop\n")
	return b.String()
}

// e16BadSource is the misconfigured generation for the forced-rollback leg:
// it drops everything, which is exactly what the canary's ingress-drop budget
// exists to catch.
func e16BadSource() string { return "drop\n" }

// RunE16 drives the victim workload through the upgrade schedule on
// kernelstack, bypass and kopi. Only kopi runs the upgrade manager — that is
// the point: the kernel stack does not need one and raw bypass has no layer
// that could even sequence a staged cutover. Every cell is byte-identical at
// any worker width (TestExperimentTables).
func RunE16(scale Scale) ([]E16Point, *stats.Table) {
	archs := []string{"kernelstack", "bypass", "kopi"}
	points := make([]E16Point, len(archs))
	r := NewRunner()
	for i, name := range archs {
		i, name := i, name
		r.Go(func() { points[i] = e16Run(name, scale) })
	}
	r.Wait()

	t := stats.NewTable("E16: live upgrade vs bitstream respin (policy upgrade at dur/4, bad-generation rollback at 5·dur/8, E14 victim workload)",
		"arch", "delivered", "outage", "buffered", "pause drop", "warm",
		"rollbacks", "breaches", "broken", "pre hit%", "post hit%", "max gap(µs)", "silent")
	for _, p := range points {
		t.AddRow(p.Arch, p.Delivered, p.OutageDrops, p.PauseBuffered, p.PauseDrops,
			p.WarmEntries, p.Rollbacks, p.CanaryBreaches, p.BrokenConns,
			fmt.Sprintf("%.1f", p.PreHitPct), fmt.Sprintf("%.1f", p.PostHitPct),
			fmt.Sprintf("%.1f", p.MaxGapUs), p.Silent)
	}
	return points, t
}

// e16Run offers the victim workload on one architecture through the upgrade
// schedule and reports delivery, outage, handover and rollback accounting.
func e16Run(archName string, scale Scale) E16Point {
	tp := newTenantPair(archName, timing.Default())
	w := tp.w

	// The fast path exists on bypass and kopi, as in E15; the kernel stack
	// interprets everything in software and swaps policy the same way.
	tp.loadACL("e16-acl-v1", archName != "kernelstack")
	v2 := mustAssemble("e16-acl-v2", e16ACLv2Source())
	v3 := mustAssemble("e16-bad", e16BadSource())

	dur := scale.d(4 * sim.Millisecond)
	t1 := sim.Time(dur / 4)     // the policy upgrade
	t2 := sim.Time(5 * dur / 8) // the bad generation (kopi only)

	var mgr *upgrade.Manager
	if archName == "kopi" {
		// A canary window of dur/32 resolves upgrade one well before t2 at
		// any scale; the canary's 5 µs sampling gives the drop-rate budget
		// several samples inside the window.
		mgr = upgrade.New(w.Eng, w.NIC, upgrade.Config{CanaryWindow: dur / 32})
	}

	switch archName {
	case "kernelstack":
		// In-kernel interposition upgrades like any kernel code: the new
		// policy swaps in at a function-pointer boundary, no dataplane outage.
		w.Eng.At(t1, func() {
			if _, _, err := w.NIC.LoadProgram(nic.Ingress, v2); err != nil {
				panic(fmt.Sprintf("e16: kernelstack swap: %v", err))
			}
		})
	case "bypass":
		// Raw offload has no staging layer: shipping new dataplane logic is a
		// bitstream respin, and the default outage (§4.4: "seconds or
		// longer") dwarfs the run — the dataplane blackholes to the end.
		w.Eng.At(t1, func() {
			w.NIC.ReloadBitstream(w.Eng.Now(), 0)
		})
	case "kopi":
		w.Eng.At(t1, func() {
			now := w.Eng.Now()
			if err := mgr.Stage(now, v2, nil); err != nil {
				panic(fmt.Sprintf("e16: stage v2: %v", err))
			}
			if _, err := mgr.CutOver(now); err != nil {
				panic(fmt.Sprintf("e16: cutover v2: %v", err))
			}
		})
		w.Eng.At(t2, func() {
			now := w.Eng.Now()
			if err := mgr.Stage(now, v3, nil); err != nil {
				panic(fmt.Sprintf("e16: stage v3: %v", err))
			}
			if _, err := mgr.CutOver(now); err != nil {
				panic(fmt.Sprintf("e16: cutover v3: %v", err))
			}
		})
	}

	conns := tp.dialVictim(nil)

	// The recovery window [3·dur/4, dur) starts well after the rollback has
	// restored the committed generation: a connection silent across the whole
	// window is broken, and the hit-rate delta over it is the recovered fast
	// path.
	winLo := sim.Time(3 * dur / 4)
	var lastAt sim.Time
	var maxGap sim.Duration
	winDeliveries := make(map[uint64]uint64, pairVictimConns)
	tp.onDeliver(func(c *arch.Conn, p *packet.Packet, at sim.Time) {
		if gap := at.Sub(lastAt); gap > maxGap {
			maxGap = gap
		}
		lastAt = at
		if at >= winLo {
			winDeliveries[c.Info.ID]++
		}
	})

	hits := tp.watchHits(t1, winLo)
	_, silent := tp.run(dur, 0, 0)

	// The final gap: a dataplane that went dark partway through the run shows
	// it here even though no delivery follows.
	if gap := sim.Time(dur).Sub(lastAt); gap > maxGap {
		maxGap = gap
	}

	p := E16Point{
		Arch:          archName,
		Delivered:     tp.delivered,
		Silent:        silent,
		OutageDrops:   w.NIC.RxOutageDrop + w.NIC.TxOutageDrop,
		PauseBuffered: w.NIC.RxPauseBuffered,
		PauseDrops:    w.NIC.RxPauseDrop,
		MaxGapUs:      float64(maxGap) / float64(sim.Microsecond),
	}
	for _, c := range conns {
		if winDeliveries[c.Info.ID] == 0 {
			p.BrokenConns++
		}
	}
	p.PreHitPct, p.PostHitPct = hits.pcts()
	if mgr != nil {
		p.WarmEntries = mgr.WarmEntries
		p.Rollbacks = mgr.Rollbacks
		p.CanaryBreaches = mgr.CanaryBreaches
	}
	return p
}
