package experiments

import (
	"errors"
	"fmt"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/kernel"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
)

// E5Point is one offered-connection-count measurement against a small NIC
// SRAM budget, with and without a software slow path.
type E5Point struct {
	Offered  int // connections requested
	Accepted int // connections the NIC could hold

	// Without fallback: overflow connections simply fail (§5-Q3's bad
	// outcome). AggregateNoFallback counts only fast-path traffic.
	AggregateNoFallbackGbps float64
	FailedConns             int

	// With fallback: overflow connections ride the kernel software path.
	AggregateFallbackGbps float64
	FastGbps              float64
	SlowGbps              float64
}

// E5Result also reports the overlay-table exhaustion micro-check.
type E5Result struct {
	Points []E5Point

	TableCapacity int
	TableInserted int
	TableRejected int
}

// RunE5 reproduces §5-Q3: SmartNIC memory is scarce; a KOPI must degrade by
// routing overflow traffic through a software slow path rather than failing.
// Expected shape: without fallback, connections beyond the SRAM budget get
// nothing; with fallback, they get service at software (not NIC) rates and
// the aggregate degrades gracefully instead of flat-lining.
func RunE5(scale Scale) (*E5Result, *stats.Table) {
	res := &E5Result{}
	sweep := []int{128, 256, 384, 512, 768}
	res.Points = make([]E5Point, len(sweep))
	r := NewRunner()
	for i, offered := range sweep {
		i, offered := i, offered
		// The two passes (no fallback / fallback) are separate worlds too;
		// split them so they land on different cores.
		res.Points[i].Offered = offered
		r.Go(func() {
			ag, _, _, accepted := e5Traffic(offered, false, scale)
			res.Points[i].AggregateNoFallbackGbps = ag
			res.Points[i].Accepted = accepted
			res.Points[i].FailedConns = offered - accepted
		})
		r.Go(func() {
			ag, fast, slow, _ := e5Traffic(offered, true, scale)
			res.Points[i].AggregateFallbackGbps = ag
			res.Points[i].FastGbps = fast
			res.Points[i].SlowGbps = slow
		})
	}
	r.Go(func() {
		res.TableCapacity, res.TableInserted, res.TableRejected = e5TableFill()
	})
	r.Wait()

	t := stats.NewTable("E5: NIC SRAM exhaustion (budget ~64KB ≈ 300 conns), inbound 1460B",
		"offered conns", "accepted", "failed (no fallback)", "agg no-fallback (Gbps)",
		"agg fallback (Gbps)", "fast (Gbps)", "slow (Gbps)")
	for _, p := range res.Points {
		t.AddRow(p.Offered, p.Accepted, p.FailedConns, p.AggregateNoFallbackGbps,
			p.AggregateFallbackGbps, p.FastGbps, p.SlowGbps)
	}
	t2 := stats.NewTable("\nE5b: overlay exact-match table fill",
		"capacity", "inserted", "rejected")
	t2.AddRow(res.TableCapacity, res.TableInserted, res.TableRejected)
	return res, composeTables(t, t2)
}

// e5Budget sizes the NIC SRAM so roughly 300 connections fit (192B context
// + 16B steering entry each).
const e5Budget = 64 << 10

// e5Traffic opens `offered` connections on a KOPI world with a tiny SRAM
// budget and measures delivered goodput, split by path.
func e5Traffic(offered int, fallback bool, scale Scale) (agg, fast, slow float64, accepted int) {
	a := arch.New("kopi", arch.WorldConfig{SRAMBudget: e5Budget, RingSize: 32}).(*arch.KOPI)
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}

	alice := w.Kern.AddUser(1000, "alice")
	proc := w.Kern.Spawn(alice.UID, "server")

	dur := scale.d(8 * sim.Millisecond)
	winLo := sim.Time(dur) / 3
	var fastBytes, slowBytes uint64
	a.SetDeliver(func(_ *arch.Conn, p *packet.Packet, at sim.Time) {
		if at >= winLo {
			fastBytes += uint64(p.FrameLen())
		}
	})

	slowConns := map[packet.FlowKey]*kernel.ConnInfo{}
	if fallback {
		// The kernel slow path: software demux + protocol work on the
		// kernel core, then deliver. This is the paper's "route
		// performance-non-critical traffic through a software datapath".
		w.NIC.SlowPath = func(p *packet.Packet, at sim.Time) {
			k, ok := p.Flow()
			if !ok {
				return
			}
			if _, ok := slowConns[k.Reverse()]; !ok {
				return
			}
			m := &w.Model
			cost := sim.Duration(m.KernelStackFixed) + m.Copy(p.FrameLen())
			_, done := w.KernCore().Acquire(w.Eng.Now(), cost)
			w.Eng.At(done, func() {
				if w.Eng.Now() >= winLo {
					slowBytes += uint64(p.FrameLen())
				}
			})
		}
	}

	var flows []packet.FlowKey
	for i := 0; i < offered; i++ {
		flow := w.Flow(uint16(2000+i), 7)
		c, err := a.Connect(proc, flow)
		switch {
		case err == nil:
			_ = c
			accepted++
			flows = append(flows, flow)
		case errors.Is(err, nic.ErrSRAMExhausted):
			// Remote peers keep sending regardless, so the overflow flow
			// stays in the generator either way; without a fallback its
			// packets arrive unsteered and the NIC drops them.
			flows = append(flows, flow)
			if !fallback {
				continue
			}
			ci, rerr := w.Kern.RegisterConn(proc, flow)
			if rerr != nil {
				panic(fmt.Sprintf("e5: register fallback: %v", rerr))
			}
			slowConns[flow] = ci
		default:
			panic(fmt.Sprintf("e5: connect: %v", err))
		}
	}

	gen := &host.InboundGen{
		Arch: a, Flows: flows, Payload: 1460,
		Interval: host.IntervalFor(40, 1502), // per-host inbound load, below line rate
		Until:    sim.Time(dur),
	}
	gen.Start(0)
	w.Eng.RunUntil(sim.Time(dur))

	win := sim.Time(dur).Sub(winLo)
	fast = stats.Throughput(fastBytes, win)
	slow = stats.Throughput(slowBytes, win)
	balanced(w.Drain())
	return fast + slow, fast, slow, accepted
}

// e5TableFill fills an overlay exact-match table past its declared capacity
// and counts rejected control-plane inserts.
func e5TableFill() (capacity, inserted, rejected int) {
	const capN = 1024
	prog, err := overlay.Assemble("e5-table", fmt.Sprintf(`
.table flows %d
ldf r0, conn
lookup r1, flows, r0, miss
pass
miss:
drop
`, capN))
	if err != nil {
		panic("e5: assemble: " + err.Error())
	}
	m := overlay.NewMachine(prog)
	for i := 0; i < capN+200; i++ {
		if err := m.TableInsert("flows", uint64(i), 1); err != nil {
			rejected++
			continue
		}
		inserted++
	}
	return capN, inserted, rejected
}
