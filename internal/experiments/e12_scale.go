package experiments

import (
	"fmt"

	"norman/internal/nic"
	"norman/internal/sim"
	"norman/internal/stats"
)

// E12Point is one offered connection count on E3's world with E14's
// interposition in front of it: the cacheable ACL behind a 65,536-entry flow
// cache. Connections are opened until the NIC's SRAM refuses one; each
// accepted connection then receives e12FramesPerConn inbound frames.
type E12Point struct {
	Offered  int // connections asked for
	Accepted int // connections the NIC opened before its SRAM refused one

	Room        int // SRAM bytes left for connections once the cache and ACL are in
	SRAMPerConn int // SRAM bytes each accepted connection holds (context + steering)

	GoodputGbps  float64
	DescMissFrac float64 // DMA descriptor miss fraction
	HitPct       float64 // flow-cache lookup hit rate, %
	CycPerFrame  float64 // overlay cycles the ingress pipeline ran per offered frame

	Frames uint64                 // frames offered to the accepted connections
	Drops  [nic.NumReasons]uint64 // frames the NIC dropped, by reason
}

// E12's geometry: a flow cache with an entry for every connection the SRAM
// wall admits (32 B a slot, 2 MiB of the 16 MiB budget), and four frames per
// connection — a slow-path run, then up to three cache hits.
const (
	e12CacheSlots    = 65536
	e12FramesPerConn = 4
)

// RunE12 asks §5's scale questions of the one datapath every other
// experiment runs on: how far past E3's DDIO cliff interposition still
// delivers, and where on-NIC memory (§5-Q3) ends the sweep. Each point is one
// engine on a KOPI world built by E3's helper, with E14's ACL and an enabled
// flow cache; the sweep runs up to a count the NIC's SRAM refuses, and every
// world ends with balanced(w.Drain()).
func RunE12(scale Scale) ([]E12Point, *stats.Table) {
	// The last point of either sweep is past the SRAM wall, which no scale
	// moves.
	sweep := []int{10_000, 50_000, 100_000}
	if scale < 0.5 {
		sweep = []int{1_000, 100_000}
	}
	points := make([]E12Point, len(sweep))
	r := NewRunner()
	for i, n := range sweep {
		i, n := i, n
		r.Go(func() { points[i] = e12Run(n) })
	}
	r.Wait()

	t := stats.NewTable(fmt.Sprintf("E12: connection scale on the interposed datapath (E3's world + E14's ACL, %d-entry flow cache, %d frames/conn)",
		e12CacheSlots, e12FramesPerConn),
		"offered conns", "accepted", "SRAM B/conn", "goodput (Gbps)", "desc miss frac", "cache hit%", "overlay cyc/frame", "fifo drop%")
	for _, p := range points {
		t.AddRow(p.Offered, p.Accepted, p.SRAMPerConn, p.GoodputGbps, fmt.Sprintf("%.4f", p.DescMissFrac),
			fmt.Sprintf("%.1f", p.HitPct), fmt.Sprintf("%.2f", p.CycPerFrame),
			fmt.Sprintf("%.1f", 100*float64(p.Drops[nic.RxFifo])/float64(p.Frames)))
	}
	return points, t
}

// e12Run offers n connections to one world and reports what it accepted and
// how the accepted ones were served.
func e12Run(n int) E12Point {
	p := E12Point{Offered: n}
	var base int
	a, flows := e3World(n, e3Variant{ddioWays: 2}, func(n *nic.NIC) {
		loadACL(n, "e12-acl", e12CacheSlots)
		used, budget := n.SRAM()
		base, p.Room = used, budget-used
	})
	w := a.World()
	p.Accepted = len(flows)
	if used, _ := w.NIC.SRAM(); p.Accepted > 0 {
		p.SRAMPerConn = (used - base) / p.Accepted
	}

	p.Frames = uint64(e12FramesPerConn * p.Accepted)
	p.GoodputGbps, p.DescMissFrac = e3Offer(a, flows, sim.Duration(p.Frames)*e3Interval)
	if fc := w.NIC.FlowCache(); fc.Hits+fc.Misses > 0 {
		p.HitPct = 100 * float64(fc.Hits) / float64(fc.Hits+fc.Misses)
	}
	p.CycPerFrame = float64(w.NIC.IngressProgCycles) / float64(p.Frames)
	for r := range p.Drops {
		p.Drops[r] = w.NIC.Dropped(nic.Reason(r))
	}
	return p
}
