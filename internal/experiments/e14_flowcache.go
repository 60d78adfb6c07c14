package experiments

import (
	"fmt"
	"strings"

	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/timing"
)

// E14Point is one flood-size measurement of the NIC's exact-match flow cache
// (DESIGN.md §10). A victim tenant runs a small set of long-lived flows
// through a cacheable ACL ingress program while an adversarial tenant offers
// a SYN-flood-like churn of short flows — each flood flow is touched so
// rarely that it can never be re-hit, so every flood packet is a slow-path
// miss plus an install, thrashing whatever shares the table with it. Three
// worlds per point: the cache disabled (every packet interpreted), the cache
// shared (the flood evicts the victim's entries), and the cache partitioned
// by tenant weight (flood installs are denied before they can steal a
// victim slot).
type E14Point struct {
	FloodFlows int

	// Off: no cache — the interpretation-cost baseline.
	OffCycPkt float64 // interpreter cycles per offered frame
	OffP99    float64 // victim NIC->app delivery p99 in µs
	OffSilent int64

	// Shared: cache on, unpartitioned.
	ShrHitPct    float64 // global lookup hit rate, %
	ShrVicHitPct float64 // victim's own hit rate, %
	ShrCycPkt    float64
	ShrP99       float64
	ShrEvicts    uint64
	ShrSilent    int64
	ShrLedger    int64 // installs − evictions − invalidations − live (must be 0)

	// Part: cache on, partitioned 7:1 by tenant weight.
	PrtVicHitPct float64
	PrtDenied    uint64 // flood installs refused at the partition boundary
	PrtP99       float64
	PrtSilent    int64
	PrtLedger    int64
}

// E14's cache: 256 entries (64 buckets × 4 ways, 8 KiB of SRAM), so the
// victim's 64 flows fit its 224-entry partition with room to spare. Flood
// traffic: minimum-size frames at 10 Gbps round-robin over FloodFlows short
// flows — at 8192 flows each is revisited every ~700 µs, far past any
// plausible residency, so the flood is pure install churn.
const (
	e14CacheSlots   = 256
	e14FloodPayload = 64
	e14FloodGbps    = 10
)

// e14ACLSource is the cacheable ingress program: a 15-rule port blocklist
// (none of which matches this experiment's traffic), a mark rewrite, and a
// pass — ~35 interpreted cycles per slow-path packet, zero per hit. It uses
// no meter/update/mirror/notify and reads only the flow's own fields, so the
// NIC memoizes it (overlay.Machine.Cacheable).
func e14ACLSource() string {
	var b strings.Builder
	b.WriteString("ldf r0, dst_port\n")
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&b, "jeq r0, %d, blocked\n", 9000+i)
	}
	b.WriteString("ldi r2, 7\n")
	b.WriteString("setf mark, r2\n")
	b.WriteString("pass\n")
	b.WriteString("blocked:\n")
	b.WriteString("drop\n")
	return b.String()
}

// RunE14 sweeps the flood's flow count and measures hit rates, interpreter
// cycles per frame, eviction/denial churn and the victim's delivery tail in
// the three worlds. Every cell is byte-identical at any worker width
// (TestExperimentTables).
func RunE14(scale Scale) ([]E14Point, *stats.Table) {
	sweep := []int{64, 512, 2048, 8192}
	if scale < 0.5 {
		sweep = []int{64, 8192}
	}
	points := make([]E14Point, len(sweep))
	r := NewRunner()
	for i, n := range sweep {
		i, n := i, n
		points[i].FloodFlows = n
		r.Go(func() {
			res := e14Run(n, e14Off, scale)
			points[i].OffCycPkt = res.cycPkt
			points[i].OffP99 = res.vicP99
			points[i].OffSilent = res.silent
		})
		r.Go(func() {
			res := e14Run(n, e14Shared, scale)
			points[i].ShrHitPct = res.hitPct
			points[i].ShrVicHitPct = res.vicHitPct
			points[i].ShrCycPkt = res.cycPkt
			points[i].ShrP99 = res.vicP99
			points[i].ShrEvicts = res.evicts
			points[i].ShrSilent = res.silent
			points[i].ShrLedger = res.ledger
		})
		r.Go(func() {
			res := e14Run(n, e14Part, scale)
			points[i].PrtVicHitPct = res.vicHitPct
			points[i].PrtDenied = res.denied
			points[i].PrtP99 = res.vicP99
			points[i].PrtSilent = res.silent
			points[i].PrtLedger = res.ledger
		})
	}
	r.Wait()

	t := stats.NewTable("E14: flow-cache fast path vs a short-flow flood (victim 64 flows @12.5G, flood min-size frames @10G; 256-entry cache)",
		"flood flows", "off cyc/pkt", "off p99(µs)",
		"shr hit%", "shr vic hit%", "shr cyc/pkt", "shr p99(µs)", "shr evicts",
		"prt vic hit%", "prt denied", "prt p99(µs)", "silent")
	for _, p := range points {
		silent := p.OffSilent
		if abs64(p.ShrSilent) > abs64(silent) {
			silent = p.ShrSilent
		}
		if abs64(p.PrtSilent) > abs64(silent) {
			silent = p.PrtSilent
		}
		t.AddRow(p.FloodFlows,
			fmt.Sprintf("%.1f", p.OffCycPkt), fmt.Sprintf("%.1f", p.OffP99),
			fmt.Sprintf("%.1f", p.ShrHitPct), fmt.Sprintf("%.1f", p.ShrVicHitPct),
			fmt.Sprintf("%.1f", p.ShrCycPkt), fmt.Sprintf("%.1f", p.ShrP99), p.ShrEvicts,
			fmt.Sprintf("%.1f", p.PrtVicHitPct), p.PrtDenied,
			fmt.Sprintf("%.1f", p.PrtP99), silent)
	}
	return points, t
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// e14Leg selects which world one run simulates.
type e14Leg int

const (
	e14Off    e14Leg = iota // no flow cache
	e14Shared               // cache on, unpartitioned
	e14Part                 // cache on, tenant-partitioned 7:1
)

// e14Result is what one world reports.
type e14Result struct {
	hitPct    float64
	vicHitPct float64
	cycPkt    float64
	vicP99    float64
	evicts    uint64
	denied    uint64
	silent    int64
	ledger    int64
}

// e14Run offers victim + flood inbound traffic through the cacheable ACL on
// a tenant-scheduled KOPI world and reports cache accounting, interpreter
// cost and the victim's delivery tail. The tenant scheduler runs in every
// leg so the only variable between worlds is the cache configuration.
func e14Run(floodFlows int, leg e14Leg, scale Scale) e14Result {
	tp := newTenantPair("kopi", timing.Default())
	w := tp.w
	w.NIC.SetTenantScheduler(pairWeights())
	tp.loadACL("e14-acl", leg != e14Off)
	if leg == e14Part {
		if err := w.NIC.FlowCache().SetQuotas(pairWeights()); err != nil {
			panic(fmt.Sprintf("e14: partition: %v", err))
		}
	}

	tp.dialVictim(nil)
	tp.dialAdversary(floodFlows, nil)

	dur := scale.d(4 * sim.Millisecond)
	winLo := sim.Time(dur) / 2
	var vicLat stats.Histogram
	tp.onDeliver(func(c *arch.Conn, p *packet.Packet, at sim.Time) {
		if at < winLo || c.Info.UID != pairVictimUID {
			return
		}
		vicLat.Observe(at.Sub(p.Meta.Enqueued))
	})

	sent, silent := tp.run(dur, e14FloodPayload, e14FloodGbps)
	res := e14Result{
		vicP99: float64(vicLat.P99()) / float64(sim.Microsecond),
		cycPkt: float64(w.NIC.IngressProgCycles) / float64(sent),
		silent: silent,
	}
	if f := w.NIC.FlowCache(); f != nil {
		if total := f.Hits + f.Misses; total > 0 {
			res.hitPct = 100 * float64(f.Hits) / float64(total)
		}
		for _, ts := range f.TenantStats() {
			if ts.Tenant != pairVictimTid {
				continue
			}
			// A tenant's misses are its installs plus its denials (every
			// slow-path run attempts exactly one install), so its private
			// hit rate needs no per-tenant miss counter.
			if runs := ts.Hits + ts.Installs + ts.Denied; runs > 0 {
				res.vicHitPct = 100 * float64(ts.Hits) / float64(runs)
			}
		}
		res.evicts = f.Evictions
		res.denied = f.Denied
		res.ledger = int64(f.Installs) - int64(f.Evictions) - int64(f.Invalidations) - int64(f.Len())
	}
	return res
}
