package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strconv"

	"norman/internal/arch"
	"norman/internal/faults"
	"norman/internal/filter"
	"norman/internal/host"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/sniff"
	"norman/internal/stats"
	"norman/internal/telemetry"
	"norman/internal/transport"
)

// e9Horizon is E9's fixed virtual-time window. It must exceed the worst-case
// give-up time of the default transport RTO schedule (~4.1 s under a total
// blackhole) so every stream reaches a terminal state inside the run.
const e9Horizon = 6 * sim.Second

// e9Streams is the concurrent transfers per world.
const e9Streams = 4

// DefaultFaultSeed seeds the E9 fault processes when NORMAN_FAULT_SEED is
// unset.
const DefaultFaultSeed = 42

// FaultSeed resolves the fault-injection seed from NORMAN_FAULT_SEED. The
// same seed replays the same fault pattern — and therefore the same E9
// table — at any worker width.
func FaultSeed() int64 {
	if v := os.Getenv("NORMAN_FAULT_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return DefaultFaultSeed
}

// E9Row is one (architecture, fault level) cell of the degradation table.
type E9Row struct {
	Arch     string
	FaultPct float64 // headline fault intensity (loss probability ×100)

	Completed int // streams that finished
	Aborted   int // streams that gave up (bounded, not livelocked)

	GoodputGbps float64 // aggregate acked bytes over the busy window

	Retransmits uint64
	Timeouts    uint64

	TrapFallbacks uint64 // overlay traps absorbed by last-good fallback
	WireLost      uint64 // frames eaten in flight (loss + corruption), both dirs
	WireDup       uint64
	WireReordered uint64
	RxFifoDrops   uint64 // NIC ingress FIFO overflow under pressure bursts

	// TerminalAt is when the last stream reached a terminal state — the
	// bounded-degradation claim: finite even at 100% loss.
	TerminalAt sim.Duration
}

// RunE9 measures graceful degradation under injected faults: the same
// workload swept across architecture × fault intensity, with wire loss /
// corruption / reordering / duplication on both directions, periodic NIC
// ring-pressure bursts, and (where an overlay exists) a runtime trap
// mid-run. The claim under test is the robustness half of interposition:
// faults must degrade goodput, never wedge the simulation — every stream
// completes or aborts in bounded virtual time, and an overlay trap is
// absorbed by the last-good chain instead of killing the dataplane.
func RunE9(scale Scale) ([]E9Row, *stats.Table) {
	return RunE9Telemetry(scale, nil)
}

// RunE9Telemetry is RunE9 with an optional observability sink: when tel is
// non-nil, every world registers its metrics under {arch, fault} labels,
// traces one packet lifecycle per sweep point, and exports a pcap from a
// dataplane tap where the architecture can host one. Artifacts are keyed by
// sweep point, so the sink's contents are deterministic at any worker width.
func RunE9Telemetry(scale Scale, tel *Telemetry) ([]E9Row, *stats.Table) {
	archs := []string{"kernelstack", "bypass", "kopi"}
	pcts := []float64{0, 0.5, 2, 10, 100}
	seed := FaultSeed()
	total := uint32(scale.n(256<<10, 16<<10))

	rows := make([]E9Row, len(archs)*len(pcts))
	r := NewRunner()
	for ai, name := range archs {
		for pi, pct := range pcts {
			row := &rows[ai*len(pcts)+pi]
			row.Arch = name
			row.FaultPct = pct
			name, pct := name, pct
			r.Go(func() { e9Point(name, pct, seed, total, row, tel) })
		}
	}
	r.Wait()

	t := stats.NewTable("E9: degradation under injected faults (4 streams, seed "+strconv.FormatInt(seed, 10)+")",
		"arch", "fault%", "done", "aborted", "goodput(Gbps)", "rexmit", "timeouts",
		"trapFB", "wireLost", "wireDup", "fifoDrop", "terminal")
	for _, r := range rows {
		t.AddRow(r.Arch, fmt.Sprintf("%g", r.FaultPct), r.Completed, r.Aborted,
			r.GoodputGbps, r.Retransmits, r.Timeouts, r.TrapFallbacks,
			r.WireLost, r.WireDup, r.RxFifoDrops, r.TerminalAt.String())
	}
	return rows, t
}

// e9Point runs one world: an architecture at one fault intensity.
func e9Point(name string, pct float64, seed int64, total uint32, row *E9Row, tel *Telemetry) {
	a := arch.New(name, arch.WorldConfig{})
	w := a.World()
	point := fmt.Sprintf("%s-%g", name, pct)
	if tel != nil {
		w.EnableTracing(0)
	}

	wire := faults.WireConfig{
		Loss:      pct / 100,
		Reorder:   pct / 200,
		Duplicate: pct / 400,
		Corrupt:   pct / 400,
	}
	cfg := faults.Config{
		Seed:  seed,
		Label: fmt.Sprintf("e9.%s.%g", name, pct),
		Tx:    wire,
		Rx:    wire,
	}
	if pct > 0 {
		cfg.Ring = faults.RingConfig{
			Period:    500 * sim.Microsecond,
			Burst:     50 * sim.Microsecond,
			Window:    1,
			DDIOLines: 64,
		}
	}
	inj := faults.New(w.Eng, w.NIC, w.LLC, cfg)
	if tel != nil {
		inj.SetTracer(w.Tracer)
	}

	// Peer side: per-stream responders (each reassembles one sequence
	// space), all fed from the wire, with their ACK path routed back through
	// the Rx fault model.
	deliver := inj.WrapRx(func(p *packet.Packet) { a.DeliverWire(p) })
	resps := make([]*transport.Responder, e9Streams)
	for i := range resps {
		resps[i] = transport.NewResponder(a, uint16(5900+i), seed+int64(i))
		resps[i].Deliver = deliver
		if tel != nil {
			resps[i].SetTracer(w.Tracer)
		}
	}
	w.Peer = func(p *packet.Packet, at sim.Time) {
		for _, resp := range resps {
			resp.Recv(p, at)
		}
	}
	inj.AttachTx()
	inj.Start(sim.Time(e9Horizon))

	// Where the architecture has an overlay dataplane, install a small
	// firewall chain (two loads, so a last-good chain exists) and trap it
	// mid-run: graceful degradation must absorb the trap, not wedge.
	if pct > 0 {
		for i := 0; i < 2; i++ {
			rule := &filter.Rule{
				Proto:    filter.Proto(packet.ProtoUDP),
				DstPorts: filter.Port(uint16(20000 + i)),
				Action:   filter.ActDrop,
			}
			if err := a.InstallRule(filter.HookOutput, rule); err != nil {
				break // no interposition point (bypass): nothing to trap
			}
		}
		if w.NIC.Machine(nic.Egress) != nil {
			inj.ScheduleOverlayTrap(nic.Egress, sim.Time(50*sim.Microsecond), "e9 injected trap")
		}
	}

	// Observability: a dataplane tap captures the sweep point's TCP traffic
	// for pcap export, where the architecture has an interposition point to
	// host one (raw bypass has none — the paper's tcpdump gap).
	var tap *sniff.Tap
	if tel != nil {
		if expr, err := sniff.Parse("tcp"); err == nil {
			if tp, err := a.AttachTap(expr); err == nil {
				tap = tp
				tap.RegisterMetrics(tel.Registry, telemetry.Labels{"arch": name, "fault": fmt.Sprintf("%g", pct)})
			}
		}
	}

	u := w.Kern.AddUser(1, "u")
	proc := w.Kern.Spawn(u.UID, "sender")
	mux := host.NewMux(a)
	streams := make([]*transport.Stream, e9Streams)
	for i := range streams {
		flow := packet.FlowKey{
			Src: w.HostIP, Dst: w.PeerIP,
			SrcPort: uint16(4001 + i), DstPort: uint16(5900 + i),
			Proto: packet.ProtoTCP,
		}
		conn, err := a.Connect(proc, flow)
		if err != nil {
			panic("e9: connect: " + err.Error())
		}
		streams[i] = transport.New(a, conn, flow, mux, transport.Config{TotalBytes: total})
		streams[i].Start()
	}

	w.Eng.RunUntil(sim.Time(e9Horizon))

	var acked uint64
	var last sim.Time
	for _, s := range streams {
		if s.Done() {
			row.Completed++
		}
		if s.Aborted() {
			row.Aborted++
		}
		acked += s.Stats.AckedBytes
		row.Retransmits += s.Stats.Retransmits
		row.Timeouts += s.Stats.Timeouts
		if s.Terminal() && s.Stats.Finished > last {
			last = s.Stats.Finished
		}
	}
	if last == 0 {
		last = sim.Time(e9Horizon) // a non-terminal stream: clamp to horizon
	}
	row.TerminalAt = last.Sub(0)
	if last > 0 {
		row.GoodputGbps = float64(acked) * 8 / last.Sub(0).Seconds() / 1e9
	}
	row.TrapFallbacks = w.NIC.TrapFallbacks
	row.WireLost = inj.Tx.Dropped() + inj.Rx.Dropped()
	row.WireDup = inj.Tx.Duplicated + inj.Rx.Duplicated
	row.WireReordered = inj.Tx.Reordered + inj.Rx.Reordered
	row.RxFifoDrops = w.NIC.RxFifoDrop
	balanced(w.NIC.Balance())

	if tel != nil {
		e9Collect(tel, point, name, pct, w, inj, streams, resps, tap)
	}
}

// e9Collect registers the world's metrics on the shared registry and stores
// the sweep point's pcap and single-packet trace artifacts. Runs after the
// world has drained, so reads need no synchronization with the engine.
func e9Collect(tel *Telemetry, point, name string, pct float64, w *arch.World,
	inj *faults.Injector, streams []*transport.Stream, resps []*transport.Responder, tap *sniff.Tap) {
	labels := telemetry.Labels{"arch": name, "fault": fmt.Sprintf("%g", pct)}
	w.RegisterMetrics(tel.Registry, labels)
	inj.RegisterMetrics(tel.Registry, labels)
	transport.RegisterStreamMetrics(tel.Registry, labels, func() []*transport.Stream { return streams })
	for i, resp := range resps {
		l := telemetry.Labels{"arch": name, "fault": fmt.Sprintf("%g", pct), "peer": strconv.Itoa(i)}
		resp.RegisterResponderMetrics(tel.Registry, l)
	}

	if tap != nil && len(tap.Records()) > 0 {
		var buf bytes.Buffer
		if err := tap.WritePcap(&buf); err == nil {
			tel.AddPcap(point, buf.Bytes())
		}
	}

	// Pick the sweep point's exemplar packet journey: prefer the first
	// stamped ID whose span crossed a fault event (it shows *why* delivery
	// degraded), else the deepest span available.
	tr := w.Tracer
	if tr == nil {
		return
	}
	ids := tr.IDs()
	var pick uint64
	var deepest int
	for _, id := range ids {
		span := tr.Trace(id)
		hasFault := false
		for _, ev := range span {
			if ev.Layer == "faults" {
				hasFault = true
				break
			}
		}
		if hasFault && len(span) >= 4 {
			pick = id
			break
		}
		if len(span) > deepest {
			deepest, pick = len(span), id
		}
	}
	if pick != 0 {
		tel.AddTrace(point, tr.Format(pick))
	}
}
