package experiments

import (
	"fmt"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/overload"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/timing"
)

// E11Point is one connection-count measurement comparing an uncontrolled
// bypass dataplane against KOPI with the overload governor, both driven
// across the E3 DDIO cliff with a high/low priority traffic mix.
type E11Point struct {
	Conns int

	// Uncontrolled bypass: every connection gets rings, nothing sheds, the
	// MAC FIFO drops indiscriminately once descriptor fetches start missing
	// DDIO — both classes collapse together.
	RawHiGbps float64
	RawLoGbps float64
	RawHiP99  float64 // high-class NIC->app delivery p99 in µs
	RawDrops  uint64  // wire-level FIFO/ring drops in the uncontrolled world

	// KOPI + overload governor: admission caps the ring working set under
	// the DDIO share, rejected flows become typed/counted drops, and under
	// saturation the shed policy sacrifices the low class first.
	CtlHiGbps   float64
	CtlLoGbps   float64
	CtlHiP99    float64 // high-class delivery p99 in µs under the governor
	CtlAdmitted uint64  // connections admitted by the governor
	CtlRejected uint64  // typed admission rejections (wrapping ErrAdmission)
	CtlShed     uint64  // frames shed by the priority-aware policy
	CtlState    string  // watchdog health state at the end of the run
	// CtlSilent is the zero-silent-loss check: offered minus delivered minus
	// every counted drop (no-steer, ring, FIFO, verdict, outage, shed). Any
	// nonzero value is a packet the system lost without accounting for it.
	CtlSilent int64
	RawSilent int64
}

// e11RingSize matches E3: 16 descriptors × 64B = 1 KiB of descriptor lines
// per connection, so the ~1.45 MiB DDIO share saturates just past 1024
// connections.
const e11RingSize = 16

// RunE11 sweeps connection counts across the DDIO cliff with a 1:7
// high:low priority mix and measures what overload control buys: the
// uncontrolled bypass world collapses for both classes past the cliff, while
// the governed KOPI world holds high-priority goodput flat by refusing (with
// typed errors) the ring working set it cannot afford and shedding the low
// class first under saturation — and accounts for every single non-delivered
// frame.
func RunE11(scale Scale) ([]E11Point, *stats.Table) {
	sweep := []int{64, 256, 512, 1024, 1536, 2048, 4096, 8192}
	if scale < 0.5 {
		sweep = []int{64, 1024, 8192}
	}
	points := make([]E11Point, len(sweep))
	r := NewRunner()
	for i, n := range sweep {
		i, n := i, n
		points[i].Conns = n
		r.Go(func() {
			res := e11Run(n, false, scale)
			points[i].RawHiGbps = res.hiGbps
			points[i].RawLoGbps = res.loGbps
			points[i].RawHiP99 = res.hiP99
			points[i].RawDrops = res.drops
			points[i].RawSilent = res.silent
		})
		r.Go(func() {
			res := e11Run(n, true, scale)
			points[i].CtlHiGbps = res.hiGbps
			points[i].CtlLoGbps = res.loGbps
			points[i].CtlHiP99 = res.hiP99
			points[i].CtlAdmitted = res.admitted
			points[i].CtlRejected = res.rejected
			points[i].CtlShed = res.shed
			points[i].CtlState = res.state
			points[i].CtlSilent = res.silent
		})
	}
	r.Wait()

	t := stats.NewTable("E11: overload control across the DDIO cliff (1:7 hi:lo mix, offered at line rate)",
		"conns", "raw hi (Gbps)", "raw lo", "raw hi p99(µs)", "raw drops",
		"ctl hi (Gbps)", "ctl lo", "ctl hi p99(µs)",
		"admitted", "rejected", "shed", "state", "silent")
	for _, p := range points {
		t.AddRow(p.Conns,
			fmt.Sprintf("%.1f", p.RawHiGbps), fmt.Sprintf("%.1f", p.RawLoGbps),
			fmt.Sprintf("%.1f", p.RawHiP99), p.RawDrops,
			fmt.Sprintf("%.1f", p.CtlHiGbps), fmt.Sprintf("%.1f", p.CtlLoGbps),
			fmt.Sprintf("%.1f", p.CtlHiP99),
			p.CtlAdmitted, p.CtlRejected, p.CtlShed, p.CtlState, p.CtlSilent)
	}
	return points, t
}

// e11Result is what one world reports.
type e11Result struct {
	hiGbps, loGbps float64
	hiP99          float64 // µs
	drops          uint64
	admitted       uint64
	rejected       uint64
	shed           uint64
	state          string
	silent         int64
}

// e11Run offers line-rate inbound traffic round-robin across n flows — the
// first eighth owned by the high-priority tenant, the rest by the
// low-priority one — on the E3 cliff model (8 MiB LLC, 2/11 DDIO ways,
// 16-slot rings). governed=false opens rings for every flow on a bypass
// world; governed=true runs KOPI with the overload governor: admission per
// dial (high tenant first), qos-weight shedding, and the watchdog sampling
// in virtual time.
func e11Run(n int, governed bool, scale Scale) e11Result {
	model := timing.Default()
	model.DDIOWays = 2
	model.LLCBytes = 8 << 20
	name := "bypass"
	if governed {
		name = "kopi"
	}
	a := arch.New(name, arch.WorldConfig{Model: model, RingSize: e11RingSize})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}

	hiUser := w.Kern.AddUser(1, "hi")
	loUser := w.Kern.AddUser(2, "lo")
	hiProc := w.Kern.Spawn(hiUser.UID, "hi-svc")
	loProc := w.Kern.Spawn(loUser.UID, "lo-svc")

	nHi := n / 8
	if nHi < 1 {
		nHi = 1
	}

	var gov *overload.Governor
	if governed {
		gov = overload.NewGovernor(w.Eng, w.NIC, w.LLC, overload.Config{})
		// Reuse the qos scheduler's class weights verbatim: class 1 (high)
		// weight 8, class 2 (low) weight 1 — the same numbers an egress WFQ
		// would schedule by decide who is shed first on ingress.
		wfq := qos.NewWFQ(0)
		wfq.SetWeight(1, 8)
		wfq.SetWeight(2, 1)
		gov.InstallShedding(func(uid uint32) uint32 { return uid }, wfq.Weights())
	}

	// Dial order: the high tenant first (its conns always fit the budget),
	// then the low tenant until admission says no. Rejected flows stay in
	// the offered set — their frames arrive, find no steering entry, and are
	// counted as no-steer drops: a typed rejection's dataplane shadow, never
	// a silent loss.
	flows := make([]packet.FlowKey, 0, n)
	var rejected uint64
	for i := 0; i < n; i++ {
		flow := w.Flow(uint16(2000+i/512), uint16(7000+i%512))
		flows = append(flows, flow)
		proc, uid := loProc, loUser.UID
		if i < nHi {
			proc, uid = hiProc, hiUser.UID
		}
		if gov != nil {
			if err := gov.AdmitConn(uid); err != nil {
				rejected++
				continue
			}
		}
		if _, err := a.Connect(proc, flow); err != nil {
			panic(fmt.Sprintf("e11: connect %d: %v", i, err))
		}
	}

	// Duration: enough for every ring to wrap several times at ~8.3 Mpps
	// aggregate (one 1502B frame every ~120 ns at 100G).
	wraps := 6
	if scale < 0.5 {
		wraps = 2
	}
	dur := sim.Duration(n*e11RingSize*wraps) * (120 * sim.Nanosecond)
	if min := scale.d(4 * sim.Millisecond); dur < min {
		dur = min
	}
	winLo := sim.Time(dur) / 2
	var delivered uint64
	var hiBytes, loBytes uint64
	var hiLat stats.Histogram
	a.SetDeliver(func(c *arch.Conn, p *packet.Packet, at sim.Time) {
		delivered++
		if at < winLo {
			return
		}
		if c.Info.UID == hiUser.UID {
			hiBytes += uint64(p.FrameLen())
			// NIC-receive to app-delivery latency: the ring wait plus the DMA
			// whose descriptor fetch is what the DDIO cliff slows down.
			hiLat.Observe(at.Sub(p.Meta.Enqueued))
		} else {
			loBytes += uint64(p.FrameLen())
		}
	})

	if gov != nil {
		gov.Start(sim.Time(dur))
	}
	gen := &host.InboundGen{
		Arch: a, Flows: flows, Payload: 1460,
		Interval: host.IntervalFor(100, 1502),
		Until:    sim.Time(dur),
	}
	gen.Start(0)
	w.Eng.RunUntil(sim.Time(dur))
	balanced(w.Drain()) // in-flight DMA/delivery; the watchdog stops at dur

	res := e11Result{
		hiGbps:   stats.Throughput(hiBytes, sim.Time(dur).Sub(winLo)),
		loGbps:   stats.Throughput(loBytes, sim.Time(dur).Sub(winLo)),
		hiP99:    float64(hiLat.P99()) / float64(sim.Microsecond),
		drops:    w.NIC.RxFifoDrop + w.NIC.RxDropRing,
		rejected: rejected,
	}
	if gov != nil {
		snap := gov.Snapshot()
		res.admitted = snap.Admitted
		res.shed = snap.ShedPackets
		res.state = snap.State
	} else {
		res.state = "-"
	}
	res.silent = silentLoss(w, gen.Sent, delivered)
	return res
}
