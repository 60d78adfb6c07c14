package experiments

import (
	"fmt"
	"strings"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/overload"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/timing"
)

// E13Point is one adversary-size measurement of multi-tenant performance
// isolation: a latency-sensitive victim tenant shares the NIC with an
// adversarial tenant that opens elephant flows across the DDIO cliff and
// tries to install an overlay-cycle burner. The bare bypass world gives the
// victim nothing; the governed KOPI world (weighted pipeline/DMA scheduling,
// per-tenant DDIO ways, per-tenant admission budgets, program cycle bounds)
// holds the victim's p99 and throughput share.
type E13Point struct {
	AdvConns int

	// Solo baseline: the victim alone on the governed world — the p99 the
	// isolation machinery is supposed to preserve.
	SoloP99     float64 // victim NIC->app delivery p99 in µs
	SoloVicGbps float64

	// Raw bypass: both tenants share one FIFO, one DMA engine, the whole
	// DDIO region, and the adversary's 202-cycle ingress program runs
	// against every frame — including the victim's.
	RawVicGbps float64
	RawAdvGbps float64
	RawVicP99  float64 // µs
	RawDrops   uint64  // FIFO + ring drops in the raw world
	RawSilent  int64

	// Governed KOPI: weighted DRR over pipeline and DMA, DDIO ways
	// partitioned per tenant, the governor's descriptor budget split by
	// weight, and the adversary's program refused by its cycle bound.
	CtlVicGbps     float64
	CtlAdvGbps     float64
	CtlVicP99      float64 // µs
	CtlAdmitted    uint64  // connections admitted by the governor
	CtlRejected    uint64  // typed admission rejections (wrapping ErrAdmission)
	CtlProgRefused uint64  // overlay programs refused by AdmitProgram
	CtlVicState    string  // victim tenant health state at the end of the run
	CtlAdvState    string  // adversary tenant health state at the end of the run
	CtlSilent      int64
}

// E13 tenant identities and weights: the victim holds 7/8 of every
// schedulable resource, the adversary 1/8 — the victim waits for at most
// about one adversary grant per scheduler rotation.
const (
	e13VictimUID  = 101
	e13AdvUID     = 202
	e13VictimTid  = 1
	e13AdvTid     = 2
	e13VictimW    = 7
	e13AdvW       = 1
	e13RingSize   = 16
	e13Share      = 0.85 // governor DDIO share, as in E11
	e13ProgCycles = 64   // governor per-packet overlay cycle bound
)

// e13VictimConns is the victim's flow count: 64 rings × 1 KiB of descriptor
// lines = 64 KiB, comfortably inside one DDIO way.
const e13VictimConns = 64

// Victim traffic: small frames at 12.5 Gbps. Adversary traffic: 1502 B
// elephants at 85 Gbps. Together they stay under the 100 Gbps wire, so any
// victim latency growth comes from NIC resources, not link queueing.
const (
	e13VictimPayload = 256
	e13VictimFrame   = e13VictimPayload + 42
	e13VictimGbps    = 12.5
	e13AdvPayload    = 1460
	e13AdvFrame      = e13AdvPayload + 42
	e13AdvGbps       = 85
)

// RunE13 sweeps the adversary's connection count across the DDIO cliff and
// measures the victim's delivery p99 and goodput in three worlds: the victim
// alone (solo), both tenants on bare bypass (raw), and both tenants on KOPI
// with tenant isolation (ctl). shards is an execution parameter only — it
// picks the engine's shard layout (DESIGN.md §8) and is excluded from the
// table by design; every cell is byte-identical at any shard or worker
// width (TestE13Determinism enforces both).
func RunE13(scale Scale, shards int) ([]E13Point, *stats.Table) {
	if shards < 1 {
		shards = 1
	}
	sweep := []int{256, 1024, 2048, 4096, 8192}
	if scale < 0.5 {
		sweep = []int{256, 2048, 8192}
	}
	points := make([]E13Point, len(sweep))
	r := NewRunner()
	for i, n := range sweep {
		i, n := i, n
		points[i].AdvConns = n
		r.Go(func() {
			res := e13Run(n, e13Solo, scale, shards)
			points[i].SoloP99 = res.vicP99
			points[i].SoloVicGbps = res.vicGbps
		})
		r.Go(func() {
			res := e13Run(n, e13Raw, scale, shards)
			points[i].RawVicGbps = res.vicGbps
			points[i].RawAdvGbps = res.advGbps
			points[i].RawVicP99 = res.vicP99
			points[i].RawDrops = res.drops
			points[i].RawSilent = res.silent
		})
		r.Go(func() {
			res := e13Run(n, e13Ctl, scale, shards)
			points[i].CtlVicGbps = res.vicGbps
			points[i].CtlAdvGbps = res.advGbps
			points[i].CtlVicP99 = res.vicP99
			points[i].CtlAdmitted = res.admitted
			points[i].CtlRejected = res.rejected
			points[i].CtlProgRefused = res.progRefused
			points[i].CtlVicState = res.vicState
			points[i].CtlAdvState = res.advState
			points[i].CtlSilent = res.silent
		})
	}
	r.Wait()

	t := stats.NewTable("E13: tenant isolation vs an adversarial tenant (victim 12.5G small frames, adversary 85G elephants + cycle-burner program)",
		"adv conns", "solo p99(µs)",
		"raw vic (Gbps)", "raw p99(µs)", "raw drops",
		"ctl vic (Gbps)", "ctl p99(µs)", "ctl adv (Gbps)",
		"admitted", "rejected", "prog refused", "vic state", "adv state", "silent")
	for _, p := range points {
		t.AddRow(p.AdvConns, fmt.Sprintf("%.1f", p.SoloP99),
			fmt.Sprintf("%.1f", p.RawVicGbps), fmt.Sprintf("%.1f", p.RawVicP99), p.RawDrops,
			fmt.Sprintf("%.1f", p.CtlVicGbps), fmt.Sprintf("%.1f", p.CtlVicP99),
			fmt.Sprintf("%.1f", p.CtlAdvGbps),
			p.CtlAdmitted, p.CtlRejected, p.CtlProgRefused,
			p.CtlVicState, p.CtlAdvState, p.CtlSilent)
	}
	return points, t
}

// e13Leg selects which world one run simulates.
type e13Leg int

const (
	e13Solo e13Leg = iota // victim only, governed KOPI
	e13Raw                // victim + adversary, bare bypass
	e13Ctl                // victim + adversary, governed KOPI
)

// e13Result is what one world reports.
type e13Result struct {
	vicGbps, advGbps float64
	vicP99           float64 // µs
	drops            uint64
	admitted         uint64
	rejected         uint64
	progRefused      uint64
	vicState         string
	advState         string
	silent           int64
}

// e13AdversarySource generates the adversary's overlay program: two hundred
// ALU instructions that do nothing but burn pipeline cycles on every frame
// the NIC carries — for every tenant, since the ingress pipeline is shared.
// Its cycle bound (202) is what the governed world's AdmitProgram refuses.
func e13AdversarySource() string {
	var b strings.Builder
	b.WriteString("ldi r1, 0\n")
	for i := 0; i < 200; i++ {
		b.WriteString("add r1, 1\n")
	}
	b.WriteString("pass\n")
	return b.String()
}

// e13Run offers victim + adversary inbound traffic on the E3/E11 cliff model
// (8 MiB LLC, 2/11 DDIO ways, 16-slot rings) and reports the victim's
// delivery tail, both tenants' goodput, and the zero-silent-loss ledger.
func e13Run(advConns int, leg e13Leg, scale Scale, shards int) e13Result {
	model := timing.Default()
	model.DDIOWays = 2
	model.LLCBytes = 8 << 20
	name := "bypass"
	if leg != e13Raw {
		name = "kopi"
	}
	a := arch.New(name, arch.WorldConfig{Model: model, RingSize: e13RingSize, Shards: shards})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}

	vicUser := w.Kern.AddUser(e13VictimUID, "victim")
	advUser := w.Kern.AddUser(e13AdvUID, "adversary")
	vicProc := w.Kern.Spawn(vicUser.UID, "victim-svc")
	advProc := w.Kern.Spawn(advUser.UID, "adv-svc")
	w.Kern.AssignTenant(e13VictimUID, e13VictimTid)
	w.Kern.AssignTenant(e13AdvUID, e13AdvTid)

	weights := map[uint32]int{e13VictimTid: e13VictimW, e13AdvTid: e13AdvW}
	var gov *overload.Governor
	if leg != e13Raw {
		// The full isolation stack: weighted DRR over pipeline + DMA,
		// one exclusive DDIO way per tenant, and the governor's descriptor
		// budget split 7:1 with private per-tenant health machines.
		w.NIC.SetTenantScheduler(weights)
		if err := w.LLC.PartitionDDIO(map[uint32]int{e13VictimTid: 1, e13AdvTid: 1}); err != nil {
			panic(fmt.Sprintf("e13: partition: %v", err))
		}
		gov = overload.NewGovernor(w.Eng, w.NIC, w.LLC, overload.Config{
			DDIOShare:        e13Share,
			TenantWeights:    weights,
			MaxProgramCycles: e13ProgCycles,
		})
	}

	// The adversary tries to install its cycle burner. Raw bypass loads it
	// straight onto the shared ingress pipeline; the governed world checks
	// the verified cycle bound first and refuses with a typed error.
	var progRefused uint64
	prog, err := overlay.Assemble("adv-burn", e13AdversarySource())
	if err != nil {
		panic(fmt.Sprintf("e13: assemble: %v", err))
	}
	if leg == e13Raw {
		if _, _, err := w.NIC.LoadProgram(nic.Ingress, prog); err != nil {
			panic(fmt.Sprintf("e13: load: %v", err))
		}
	} else if leg == e13Ctl {
		if err := gov.AdmitProgram(e13AdvTid, prog.CycleBound()); err != nil {
			progRefused++
		} else {
			panic("e13: the 202-cycle program must not pass a 64-cycle bound")
		}
	}

	// Dial order: victim first (its 64 rings always fit every budget), then
	// the adversary until admission refuses. Rejected flows stay in the
	// offered set — their frames arrive, find no steering entry, and are
	// counted as no-steer drops: a typed rejection's dataplane shadow.
	var rejected uint64
	vicFlows := make([]packet.FlowKey, 0, e13VictimConns)
	for i := 0; i < e13VictimConns; i++ {
		flow := w.Flow(uint16(3000+i/512), uint16(6000+i%512))
		vicFlows = append(vicFlows, flow)
		if gov != nil {
			if err := gov.AdmitConn(w.Kern.TenantOf(vicUser.UID)); err != nil {
				panic(fmt.Sprintf("e13: victim conn %d rejected: %v", i, err))
			}
		}
		if _, err := a.Connect(vicProc, flow); err != nil {
			panic(fmt.Sprintf("e13: victim connect %d: %v", i, err))
		}
	}
	advFlows := make([]packet.FlowKey, 0, advConns)
	if leg != e13Solo {
		for i := 0; i < advConns; i++ {
			flow := w.Flow(uint16(2000+i/512), uint16(7000+i%512))
			advFlows = append(advFlows, flow)
			if gov != nil {
				if err := gov.AdmitConn(w.Kern.TenantOf(advUser.UID)); err != nil {
					rejected++
					continue
				}
			}
			if _, err := a.Connect(advProc, flow); err != nil {
				panic(fmt.Sprintf("e13: adv connect %d: %v", i, err))
			}
		}
	}

	// Duration: enough for the adversary's rings to wrap several times at
	// ~7.1 Mpps (one 1502 B frame every ~141 ns at 85G).
	wraps := 6
	if scale < 0.5 {
		wraps = 2
	}
	dur := sim.Duration(advConns*e13RingSize*wraps) * (140 * sim.Nanosecond)
	if min := scale.d(4 * sim.Millisecond); dur < min {
		dur = min
	}
	winLo := sim.Time(dur) / 2
	var delivered uint64
	var vicBytes, advBytes uint64
	var vicLat stats.Histogram
	a.SetDeliver(func(c *arch.Conn, p *packet.Packet, at sim.Time) {
		delivered++
		if at < winLo {
			return
		}
		if c.Info.UID == vicUser.UID {
			vicBytes += uint64(p.FrameLen())
			// NIC-receive to app-delivery latency: FIFO wait, pipeline
			// scheduling, and the DMA whose descriptor fetch the DDIO
			// partition protects.
			vicLat.Observe(at.Sub(p.Meta.Enqueued))
		} else {
			advBytes += uint64(p.FrameLen())
		}
	})

	if gov != nil {
		gov.Start(sim.Time(dur))
	}
	vgen := &host.InboundGen{
		Arch: a, Flows: vicFlows, Payload: e13VictimPayload,
		Interval: host.IntervalFor(e13VictimGbps, e13VictimFrame),
		Until:    sim.Time(dur),
	}
	vgen.Start(0)
	sent := func() uint64 { return vgen.Sent }
	if leg != e13Solo {
		agen := &host.InboundGen{
			Arch: a, Flows: advFlows, Payload: e13AdvPayload,
			Interval: host.IntervalFor(e13AdvGbps, e13AdvFrame),
			Until:    sim.Time(dur),
		}
		agen.Start(0)
		sent = func() uint64 { return vgen.Sent + agen.Sent }
	}
	if w.Coord != nil {
		w.Coord.RunUntil(sim.Time(dur))
		w.Coord.Run() // drain in-flight DMA/delivery
	} else {
		w.Eng.RunUntil(sim.Time(dur))
		w.Eng.Run()
	}

	res := e13Result{
		vicGbps:     stats.Throughput(vicBytes, sim.Time(dur).Sub(winLo)),
		advGbps:     stats.Throughput(advBytes, sim.Time(dur).Sub(winLo)),
		vicP99:      float64(vicLat.P99()) / float64(sim.Microsecond),
		drops:       w.NIC.RxFifoDrop + w.NIC.RxDropRing,
		rejected:    rejected,
		progRefused: progRefused,
		vicState:    "-",
		advState:    "-",
	}
	if gov != nil {
		res.admitted = gov.Snapshot().Admitted
		for _, ts := range gov.TenantSnapshots() {
			switch ts.Tenant {
			case e13VictimTid:
				res.vicState = ts.State
			case e13AdvTid:
				res.advState = ts.State
			}
		}
	}
	// The zero-silent-loss ledger: every offered frame is delivered or sits
	// in exactly one drop counter.
	res.silent = int64(sent()) - int64(delivered) - int64(w.NIC.RxDropped())
	return res
}
