package experiments

import (
	"fmt"
	"strings"

	"norman/internal/arch"
	"norman/internal/nic"
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

// E13's governor settings and the adversary's traffic: 1502 B elephants at
// 85 Gbps. With the victim's 12.5 Gbps they stay under the 100 Gbps wire, so
// any victim latency growth comes from NIC resources, not link queueing.
const (
	e13ProgCycles = 64 // governor per-packet overlay cycle bound
	e13AdvPayload = 1460
	e13AdvGbps    = 85
)

// RunE13 sweeps the adversary's connection count across the DDIO cliff and
// measures the victim's delivery p99 and goodput in three worlds: the victim
// alone (solo), both tenants on bare bypass (raw), and both tenants on KOPI
// with tenant isolation (ctl). Every cell is byte-identical at any worker
// width (TestE13Determinism).
func RunE13(scale Scale) ([]E13Point, *stats.Table) {
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
			res := e13Run(n, e13Solo, scale)
			points[i].SoloP99 = res.vicP99
			points[i].SoloVicGbps = res.vicGbps
		})
		r.Go(func() {
			res := e13Run(n, e13Raw, scale)
			points[i].RawVicGbps = res.vicGbps
			points[i].RawAdvGbps = res.advGbps
			points[i].RawVicP99 = res.vicP99
			points[i].RawDrops = res.drops
			points[i].RawSilent = res.silent
		})
		r.Go(func() {
			res := e13Run(n, e13Ctl, scale)
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
func e13Run(advConns int, leg e13Leg, scale Scale) e13Result {
	model := timing.Default()
	model.DDIOWays = 2
	model.LLCBytes = 8 << 20
	name := "bypass"
	if leg != e13Raw {
		name = "kopi"
	}
	tp := newTenantPair(name, model)
	w := tp.w

	var gov *overload.Governor
	if leg != e13Raw {
		// The full isolation stack: weighted DRR over pipeline + DMA,
		// one exclusive DDIO way per tenant, and the governor's descriptor
		// budget split 7:1 with private per-tenant health machines.
		w.NIC.SetTenantScheduler(pairWeights())
		if err := w.LLC.PartitionDDIO(map[uint32]int{pairVictimTid: 1, pairAdvTid: 1}); err != nil {
			panic(fmt.Sprintf("e13: partition: %v", err))
		}
		gov = overload.NewGovernor(w.Eng, w.NIC, w.LLC, overload.Config{
			TenantWeights:    pairWeights(),
			MaxProgramCycles: e13ProgCycles,
		})
	}

	// The adversary tries to install its cycle burner. Raw bypass loads it
	// straight onto the shared ingress pipeline; the governed world checks
	// the verified cycle bound first and refuses with a typed error.
	var progRefused uint64
	prog := mustAssemble("adv-burn", e13AdversarySource())
	if leg == e13Raw {
		if _, _, err := w.NIC.LoadProgram(nic.Ingress, prog); err != nil {
			panic(fmt.Sprintf("e13: load: %v", err))
		}
	} else if leg == e13Ctl {
		if err := gov.AdmitProgram(pairAdvTid, prog.CycleBound()); err != nil {
			progRefused++
		} else {
			panic("e13: the 202-cycle program must not pass a 64-cycle bound")
		}
	}

	// The governed worlds dial through admission: the victim's rings always
	// fit, the adversary is connected until its budget refuses.
	admit := func(tenant uint32) func() error {
		if gov == nil {
			return nil
		}
		return func() error { return gov.AdmitConn(tenant) }
	}
	for i, c := range tp.dialVictim(admit(pairVictimTid)) {
		if c == nil {
			panic(fmt.Sprintf("e13: victim conn %d rejected", i))
		}
	}
	var rejected uint64
	if leg != e13Solo {
		rejected = tp.dialAdversary(advConns, admit(pairAdvTid))
	}

	// Duration: enough for the adversary's rings to wrap several times at
	// ~7.1 Mpps (one 1502 B frame every ~141 ns at 85G).
	wraps := 6
	if scale < 0.5 {
		wraps = 2
	}
	dur := sim.Duration(advConns*pairRingSize*wraps) * (140 * sim.Nanosecond)
	if min := scale.d(4 * sim.Millisecond); dur < min {
		dur = min
	}
	winLo := sim.Time(dur) / 2
	var vicBytes, advBytes uint64
	var vicLat stats.Histogram
	tp.onDeliver(func(c *arch.Conn, p *packet.Packet, at sim.Time) {
		if at < winLo {
			return
		}
		if c.Info.UID == pairVictimUID {
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
	_, silent := tp.run(dur, e13AdvPayload, e13AdvGbps)

	res := e13Result{
		vicGbps:     stats.Throughput(vicBytes, sim.Time(dur).Sub(winLo)),
		advGbps:     stats.Throughput(advBytes, sim.Time(dur).Sub(winLo)),
		vicP99:      float64(vicLat.P99()) / float64(sim.Microsecond),
		drops:       w.NIC.RxFifoDrop + w.NIC.RxDropRing,
		rejected:    rejected,
		progRefused: progRefused,
		silent:      silent,
		vicState:    "-",
		advState:    "-",
	}
	if gov != nil {
		res.admitted = gov.Snapshot().Admitted
		for _, ts := range gov.TenantSnapshots() {
			switch ts.Tenant {
			case pairVictimTid:
				res.vicState = ts.State
			case pairAdvTid:
				res.advState = ts.State
			}
		}
	}
	return res
}
