package experiments

import (
	"fmt"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/timing"
)

// E3Point is one connection-count measurement across ring/DDIO variants.
type E3Point struct {
	Conns int

	DefaultGbps float64 // per-conn rings, DDIO 2/11 ways (the paper's setup)
	DDIO0Gbps   float64 // DDIO disabled: DMA always goes to DRAM
	DDIO4Gbps   float64 // DDIO doubled to 4 ways
	IdealGbps   float64 // no cache modeling: infinite DDIO
	SharedGbps  float64 // connections share 16 rings (§5's proposed mitigation)

	DefaultMissFrac float64 // DMA descriptor miss fraction in the default run
}

// RunE3 reproduces the §5-Q1 anecdote: "our current implementation fails to
// sustain full (100Gbps) throughput when there are more than 1024 concurrent
// connections", suspected DDIO exhaustion. Expected shape: the default
// configuration holds ~line rate up to ~1k connections then falls off a
// cliff; the cliff moves right with more DDIO ways, is absent with infinite
// DDIO, is everywhere with DDIO off, and disappears when rings are shared.
func RunE3(scale Scale) ([]E3Point, *stats.Table) {
	sweep := []int{64, 256, 512, 1024, 1536, 2048, 3072, 4096}
	if scale < 0.5 {
		sweep = []int{64, 512, 1024, 2048, 4096}
	}
	// Every (connection count, variant) cell is an isolated world: fan all
	// of them out and write each result into its own slot, so the table is
	// byte-identical at any worker count.
	points := make([]E3Point, len(sweep))
	r := NewRunner()
	for i, n := range sweep {
		i, n := i, n
		points[i].Conns = n
		r.Go(func() { points[i].DefaultGbps, points[i].DefaultMissFrac = e3Run(n, e3Variant{ddioWays: 2}, scale) })
		r.Go(func() { points[i].DDIO0Gbps, _ = e3Run(n, e3Variant{ddioWays: 0}, scale) })
		r.Go(func() { points[i].DDIO4Gbps, _ = e3Run(n, e3Variant{ddioWays: 4}, scale) })
		r.Go(func() { points[i].IdealGbps, _ = e3Run(n, e3Variant{noLLC: true}, scale) })
		r.Go(func() { points[i].SharedGbps, _ = e3Run(n, e3Variant{ddioWays: 2, sharedRings: 16}, scale) })
	}
	r.Wait()

	t := stats.NewTable("E3: RX goodput vs concurrent connections (1460B, offered at line rate)",
		"conns", "per-conn rings (Gbps)", "ddio off", "ddio 4-way", "no-cache ideal", "16 shared rings", "desc miss frac")
	for _, p := range points {
		t.AddRow(p.Conns, p.DefaultGbps, p.DDIO0Gbps, p.DDIO4Gbps, p.IdealGbps, p.SharedGbps, p.DefaultMissFrac)
	}
	return points, t
}

type e3Variant struct {
	ddioWays    int
	noLLC       bool
	sharedRings int // 0 = one ring pair per connection
}

// e3RingSize is the per-connection ring depth for the scaling experiment:
// with thousands of per-connection rings the control plane sizes each one
// small. 16 slots × 64B = 1 KiB of descriptor lines per connection, so the
// ~1.5 MiB DDIO share saturates just past 1024 connections — exactly where
// the paper reports the cliff.
const e3RingSize = 16

// e3Run opens n connections on a KOPI world and blasts inbound traffic
// round-robin across them at line rate, measuring steady-state delivered
// goodput at the applications. The run lasts long enough for every ring to
// wrap several times, so descriptor reuse (or its absence) dominates cold
// misses; the warmup wraps are excluded from the measurement window.
func e3Run(n int, v e3Variant, scale Scale) (gbps float64, missFrac float64) {
	model := timing.Default()
	model.DDIOWays = v.ddioWays
	model.LLCBytes = 8 << 20 // 8 MiB LLC -> ~1.5 MiB DDIO share at 2/11 ways
	a := arch.New("kopi", arch.WorldConfig{Model: model, NoLLC: v.noLLC, RingSize: e3RingSize})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}

	alice := w.Kern.AddUser(1000, "alice")
	proc := w.Kern.Spawn(alice.UID, "server")

	flows := make([]packet.FlowKey, 0, n)
	ringConns := v.sharedRings
	if ringConns <= 0 || ringConns > n {
		ringConns = n
	}
	conns := make([]*arch.Conn, 0, ringConns)
	for i := 0; i < n; i++ {
		flow := w.Flow(uint16(2000+i), 7)
		flows = append(flows, flow)
		if i < ringConns {
			c, err := a.Connect(proc, flow)
			if err != nil {
				panic(fmt.Sprintf("e3: connect %d: %v", i, err))
			}
			conns = append(conns, c)
		} else {
			// Shared-ring mode: register the connection but steer its flow
			// onto an existing ring.
			ci, err := w.Kern.RegisterConn(proc, flow)
			if err != nil {
				panic(fmt.Sprintf("e3: register %d: %v", i, err))
			}
			_ = ci
			if err := w.NIC.SteerFlow(flow, conns[i%ringConns].Info.ID); err != nil {
				panic(fmt.Sprintf("e3: steer %d: %v", i, err))
			}
		}
	}

	// Duration: at least 6 wraps of every ring at ~8.3 Mpps aggregate
	// (one 1502B frame every ~120 ns at 100G).
	dur := sim.Duration(n*e3RingSize*6) * (120 * sim.Nanosecond)
	if min := scale.d(4 * sim.Millisecond); dur < min {
		dur = min
	}
	winLo := sim.Time(dur) / 2
	var winBytes uint64
	a.SetDeliver(func(_ *arch.Conn, p *packet.Packet, at sim.Time) {
		if at < winLo {
			return
		}
		winBytes += uint64(p.FrameLen())
	})

	gen := &host.InboundGen{
		Arch: a, Flows: flows, Payload: 1460,
		Interval: host.IntervalFor(100, 1502),
		Until:    sim.Time(dur),
	}
	gen.Start(0)
	w.Eng.RunUntil(sim.Time(dur))

	gbps = stats.Throughput(winBytes, sim.Time(dur).Sub(winLo))
	if hits, misses := w.NIC.DMADescHit, w.NIC.DMADescMiss; hits+misses > 0 {
		missFrac = float64(misses) / float64(hits+misses)
	}
	balanced(w.Drain())
	return gbps, missFrac
}
