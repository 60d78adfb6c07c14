package experiments

import (
	"fmt"
	"strings"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/nic"
	"norman/internal/overlay"
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
// that could even sequence a staged cutover. shards is execution-only; every
// cell is byte-identical at any shard or worker width (TestE16Determinism).
func RunE16(scale Scale, shards int) ([]E16Point, *stats.Table) {
	if shards < 1 {
		shards = 1
	}
	archs := []string{"kernelstack", "bypass", "kopi"}
	points := make([]E16Point, len(archs))
	r := NewRunner()
	for i, name := range archs {
		i, name := i, name
		r.Go(func() { points[i] = e16Run(name, scale, shards) })
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
func e16Run(archName string, scale Scale, shards int) E16Point {
	model := timing.Default()
	a := arch.New(archName, arch.WorldConfig{Model: model, RingSize: e14RingSize, Shards: shards})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}

	vicUser := w.Kern.AddUser(e14VictimUID, "victim")
	vicProc := w.Kern.Spawn(vicUser.UID, "victim-svc")
	w.Kern.AssignTenant(e14VictimUID, e14VictimTid)

	// The fast path exists on bypass and kopi, as in E15; the kernel stack
	// interprets everything in software and swaps policy the same way.
	withCache := archName != "kernelstack"
	if withCache {
		if err := w.NIC.EnableFlowCache(e14CacheSlots); err != nil {
			panic(fmt.Sprintf("e16: enable cache: %v", err))
		}
	}

	v1, err := overlay.Assemble("e16-acl-v1", e14ACLSource())
	if err != nil {
		panic(fmt.Sprintf("e16: assemble v1: %v", err))
	}
	v2, err := overlay.Assemble("e16-acl-v2", e16ACLv2Source())
	if err != nil {
		panic(fmt.Sprintf("e16: assemble v2: %v", err))
	}
	v3, err := overlay.Assemble("e16-bad", e16BadSource())
	if err != nil {
		panic(fmt.Sprintf("e16: assemble v3: %v", err))
	}
	if _, _, err := w.NIC.LoadProgram(nic.Ingress, v1); err != nil {
		panic(fmt.Sprintf("e16: load v1: %v", err))
	}

	dur := scale.d(4 * sim.Millisecond)
	t1 := sim.Time(dur / 4)     // the policy upgrade
	t2 := sim.Time(5 * dur / 8) // the bad generation (kopi only)

	var mgr *upgrade.Manager
	if archName == "kopi" {
		// A canary window of dur/32 resolves upgrade one well before t2 at
		// any scale; 5 µs sampling matches the health monitor's cadence and
		// gives the drop-rate budget several samples inside the window.
		mgr = upgrade.New(w.Eng, w.NIC, upgrade.Config{
			CanaryWindow: dur / 32,
			SampleEvery:  5 * sim.Microsecond,
		})
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

	vicFlows := make([]packet.FlowKey, 0, e14VictimConns)
	connIDs := make([]uint64, 0, e14VictimConns)
	for i := 0; i < e14VictimConns; i++ {
		flow := w.Flow(uint16(3000+i/512), uint16(6000+i%512))
		vicFlows = append(vicFlows, flow)
		c, err := a.Connect(vicProc, flow)
		if err != nil {
			panic(fmt.Sprintf("e16: connect %d: %v", i, err))
		}
		connIDs = append(connIDs, c.Info.ID)
	}

	// The recovery window [3·dur/4, dur) starts well after the rollback has
	// restored the committed generation: a connection silent across the whole
	// window is broken, and the hit-rate delta over it is the recovered fast
	// path.
	winLo := sim.Time(3 * dur / 4)
	var delivered uint64
	var lastAt sim.Time
	var maxGap sim.Duration
	winDeliveries := make(map[uint64]uint64, e14VictimConns)
	a.SetDeliver(func(c *arch.Conn, p *packet.Packet, at sim.Time) {
		delivered++
		if gap := at.Sub(lastAt); gap > maxGap {
			maxGap = gap
		}
		lastAt = at
		if at >= winLo {
			winDeliveries[c.Info.ID]++
		}
	})

	var preHits, preLookups, winHits, winLookups uint64
	if fc := w.NIC.FlowCache(); fc != nil {
		w.Eng.At(t1, func() {
			preHits = fc.Hits
			preLookups = fc.Hits + fc.Misses
		})
		w.Eng.At(winLo, func() {
			winHits = fc.Hits
			winLookups = fc.Hits + fc.Misses
		})
	}

	gen := &host.InboundGen{
		Arch: a, Flows: vicFlows, Payload: e14VictimPayload,
		Interval: host.IntervalFor(e14VictimGbps, e14VictimFrame),
		Until:    sim.Time(dur),
	}
	gen.Start(0)
	if w.Coord != nil {
		w.Coord.RunUntil(sim.Time(dur))
		w.Coord.Run()
	} else {
		w.Eng.RunUntil(sim.Time(dur))
		w.Eng.Run()
	}

	// The final gap: a dataplane that went dark partway through the run shows
	// it here even though no delivery follows.
	if gap := sim.Time(dur).Sub(lastAt); gap > maxGap {
		maxGap = gap
	}

	p := E16Point{
		Arch:          archName,
		Delivered:     delivered,
		OutageDrops:   w.NIC.RxOutageDrop + w.NIC.TxOutageDrop,
		PauseBuffered: w.NIC.RxPauseBuffered,
		PauseDrops:    w.NIC.RxPauseDrop,
		MaxGapUs:      float64(maxGap) / float64(sim.Microsecond),
	}
	for _, id := range connIDs {
		if winDeliveries[id] == 0 {
			p.BrokenConns++
		}
	}
	if fc := w.NIC.FlowCache(); fc != nil {
		if preLookups > 0 {
			p.PreHitPct = 100 * float64(preHits) / float64(preLookups)
		}
		if post := (fc.Hits + fc.Misses) - winLookups; post > 0 {
			p.PostHitPct = 100 * float64(fc.Hits-winHits) / float64(post)
		}
	}
	if mgr != nil {
		p.WarmEntries = mgr.WarmEntries
		p.Rollbacks = mgr.Rollbacks
		p.CanaryBreaches = mgr.CanaryBreaches
	}
	// The conservation ledger, E15's form plus the pause-overflow class: every
	// offered frame is delivered, held-and-replayed, or sits in exactly one
	// typed drop counter. Zero silent loss is the upgrade's proof obligation —
	// including for the architecture that blackholed.
	p.Silent = int64(gen.Sent) - int64(delivered) - int64(w.NIC.RxDropped())
	return p
}
