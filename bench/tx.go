package bench

import (
	"fmt"

	"norman/internal/arch"
	"norman/internal/faults"
	"norman/internal/filter"
	"norman/internal/host"
	"norman/internal/kernel"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/sniff"
	"norman/internal/timing"
	"norman/internal/transport"
)

// tx_stream_churn shape.
const (
	txClients       = 64
	txUsers         = 4
	txTransferBytes = 64 << 10
	txWireLoss      = 0.005
	txRulesPerHook  = 8
	txBlockedPort   = 62000
	// txRing holds a whole transfer's window (47 segments) with room.
	txRing = 64
	// Every transfer gets its own port pair, drawn from a seeded permutation
	// of txPortSpan values: source from the bottom of the permutation up,
	// destination from the top down.
	txPortSpan     = 1 << 14
	txFirstSrcPort = 1024
	txFirstDstPort = 20000
)

// transfer is one Connect → Stream → Close cycle of a client.
type transfer struct {
	idx    int
	client int
	port   uint16
	start  sim.Time
	conn   *arch.Conn
	stream *transport.Stream
	resp   *transport.Responder
}

// txClient is one closed-loop client: it starts its next transfer only when
// the current one is terminal. The closed transfer before it stays in prev
// for one more cycle, so frames still inside the NIC when its connection
// closed are accounted before the handle is dropped.
type txClient struct {
	proc      *kernel.Process
	cur, prev *transfer
}

// txWorld is the closed-loop transmit workload: 64 clients of 4 users share
// one egress through a WFQ qdisc, a compiled firewall chain on both hooks, a
// capture tap and a flow cache, over a wire that loses 0.2% of frames each
// way.
type txWorld struct {
	sp   Spec
	a    *arch.KOPI
	w    *arch.World
	rec  *spanRec // nil on untraced repeats
	mux  *host.Mux
	inj  *faults.Injector
	wfq  *qos.WFQ
	tap  *sniff.Tap
	pids []uint32
	// ackIn carries peer ACKs back through the Rx fault model.
	ackIn func(*packet.Packet)

	clients    []txClient
	ports      []int // seeded permutation of [0, txPortSpan)
	responders map[uint16]*transport.Responder
	started    int
	// Statistics run from the start of transfer Transfers/4 to the start of
	// the last transfer: the span over which all 64 clients are active.
	tWarm, tLastStart sim.Time
	warm, lastStarted bool

	// Retired-transfer totals.
	completed, aborted, retired int
	ackedInWindow               uint64
	segs, rexmit, fastRexmit    uint64
	timeouts, peerAcks          uint64
	appDelivered, abandoned     uint64
	ringProduced, ringDropped   uint64
	lat                         []int64
	err                         error // first violation seen mid-run

	peerFrames           uint64
	pendingSum, pendingN uint64
	qdepthMax            int
	tracedLat            *latRing
}

func (x *txWorld) arch() arch.Arch { return x.a }

func (x *txWorld) harnessLatencies() (*latRing, bool) { return x.tracedLat, true }

func buildTx(sp Spec, seed int64, rec *spanRec, traced bool) (world, error) {
	id := rec.begin("arch.New")
	a := arch.NewKOPI(arch.NewWorld(arch.WorldConfig{Model: timing.Default(), RingSize: txRing}))
	w := a.World()
	if traced {
		w.EnableTracing(traceDepth)
	}
	rec.end(id)

	x := &txWorld{
		sp: sp, a: a, w: w, rec: rec,
		clients:    make([]txClient, txClients),
		ports:      sim.NewRNG(seed, "normbench.ports."+sp.Name).Perm(txPortSpan),
		responders: make(map[uint16]*transport.Responder, txClients),
		lat:        make([]int64, 0, sp.Transfers),
	}
	if traced {
		x.tracedLat = new(latRing)
	}

	id = rec.begin("load_policy")
	for u := 0; u < txUsers; u++ {
		w.Kern.AddUser(uint32(1001+u), fmt.Sprintf("user%d", u))
	}
	for i := range x.clients {
		p := w.Kern.Spawn(uint32(1001+i%txUsers), fmt.Sprintf("client-%d", i))
		x.clients[i].proc = p
		x.pids = append(x.pids, p.PID)
	}
	if err := w.NIC.EnableFlowCache(flowCacheSize); err != nil {
		return nil, fmt.Errorf("enable flow cache: %w", err)
	}
	// Sixteen rules that no transfer matches, so every frame walks its
	// whole chain: port blocklists on both hooks plus one owner match,
	// which only an interposition point with a process view can compile.
	for _, hook := range []filter.Hook{filter.HookOutput, filter.HookInput} {
		for i := 0; i < txRulesPerHook; i++ {
			r := &filter.Rule{Proto: filter.Proto(packet.ProtoTCP), Action: filter.ActDrop}
			switch {
			case i == txRulesPerHook-1 && hook == filter.HookOutput:
				r.OwnerUID = filter.UID(9999)
			case hook == filter.HookOutput:
				r.DstPorts = filter.Port(uint16(txBlockedPort + i))
			default:
				r.SrcPorts = filter.Port(uint16(txBlockedPort + i))
			}
			rid := rec.begin("InstallRule")
			err := a.InstallRule(hook, r)
			rec.end(rid)
			if err != nil {
				return nil, fmt.Errorf("install rule: %w", err)
			}
		}
	}
	x.wfq = qos.NewWFQ(4096)
	x.wfq.SetWeight(1001, 3)
	for u := 1; u < txUsers; u++ {
		x.wfq.SetWeight(uint32(1001+u), 1)
	}
	if err := a.SetQdisc(x.wfq, func(p *packet.Packet) uint32 { return p.Meta.UID }); err != nil {
		return nil, fmt.Errorf("set qdisc: %w", err)
	}
	// The operator's tcpdump: one client's TCP traffic, attributed by pid.
	expr, err := sniff.Parse(fmt.Sprintf("tcp and pid %d", x.pids[0]))
	if err != nil {
		return nil, fmt.Errorf("tap expression: %w", err)
	}
	if x.tap, err = a.AttachTap(expr); err != nil {
		return nil, fmt.Errorf("attach tap: %w", err)
	}
	wire := faults.WireConfig{Loss: txWireLoss}
	x.inj = faults.New(w.Eng, w.NIC, w.LLC, faults.Config{Seed: seed, Label: "normbench", Tx: wire, Rx: wire})
	if traced {
		x.inj.SetTracer(w.Tracer)
	}
	x.ackIn = x.inj.WrapRx(a.DeliverWire)
	w.Peer = x.peer
	x.inj.AttachTx()
	x.mux = host.NewMux(a)
	rec.end(id)

	// Every client opens its first connection during set-up; the rest of
	// the connects happen mid-run.
	id = rec.begin("connect_all")
	for i := range x.clients {
		if err := x.open(i); err != nil {
			return nil, err
		}
	}
	rec.end(id)
	return x, nil
}

// open connects client i's next transfer; begin starts its stream.
func (x *txWorld) open(client int) error {
	idx := x.started
	x.started++
	flow := x.flowOf(idx)
	port := flow.DstPort
	cid := x.rec.begin("Connect")
	conn, err := x.a.Connect(x.clients[client].proc, flow)
	x.rec.end(cid)
	if err != nil {
		return fmt.Errorf("connect %s: %w", flow, err)
	}
	t := &transfer{idx: idx, client: client, port: port, conn: conn}
	t.resp = transport.NewResponder(x.a, port, int64(idx))
	t.resp.Deliver = x.ackIn
	t.resp.SetTracer(x.w.Tracer)
	x.responders[port] = t.resp
	t.stream = transport.New(x.a, conn, flow, x.mux, transport.Config{
		TotalBytes: txTransferBytes,
		Done:       func(at sim.Time) { x.finish(t, at, false) },
		OnAbort:    func(_ error, at sim.Time) { x.finish(t, at, true) },
	})
	x.clients[client].cur = t
	return nil
}

// flowOf returns transfer idx's flow. Ports are never reused within a
// repeat, so a stale segment or ACK of an earlier transfer can never be
// mistaken for a later one's.
func (x *txWorld) flowOf(idx int) packet.FlowKey {
	return packet.FlowKey{
		Src: x.w.HostIP, Dst: x.w.PeerIP,
		SrcPort: uint16(txFirstSrcPort + x.ports[idx]),
		DstPort: uint16(txFirstDstPort + x.ports[txPortSpan-1-idx]),
		Proto:   packet.ProtoTCP,
	}
}

// fold accounts one closed transfer, once no frame of it can still be
// inside the NIC.
func (x *txWorld) fold(t *transfer) {
	if t == nil {
		return
	}
	st := t.stream.Stats
	x.retired++
	x.segs += st.SegmentsSent
	x.rexmit += st.Retransmits
	x.fastRexmit += st.FastRetransmits
	x.timeouts += st.Timeouts
	x.peerAcks += t.resp.AcksSent
	x.appDelivered += t.conn.Delivered
	// Frames the NIC landed in the ring of a connection the application
	// had already closed: a typed reason of this harness, not silent loss.
	x.abandoned += t.conn.NC.RxDelivered - t.conn.Delivered
	p, _, d := t.conn.NC.RX.Counters()
	tp, _, td := t.conn.NC.TX.Counters()
	x.ringProduced += p + tp
	x.ringDropped += d + td
	if !t.stream.Terminal() {
		x.fail(fmt.Errorf("transfer %d not terminal: %v", t.idx, t.stream))
	}
	if t.stream.Done() && (st.AckedBytes != txTransferBytes || t.resp.Received != txTransferBytes) {
		x.fail(fmt.Errorf("transfer %d completed with %d bytes acked, %d received, want %d",
			t.idx, st.AckedBytes, t.resp.Received, txTransferBytes))
	}
}

// fail keeps the first violation seen mid-run for collect to report.
func (x *txWorld) fail(err error) {
	if x.err == nil {
		x.err = err
	}
}

func (x *txWorld) begin(t *transfer) {
	t.start = x.w.Eng.Now()
	switch t.idx {
	case x.sp.Transfers / 4:
		x.warm, x.tWarm = true, t.start
	case x.sp.Transfers - 1:
		x.lastStarted, x.tLastStart = true, t.start
	}
	t.stream.Start()
}

// finish is the stream's terminal callback: record, close, start the
// client's next transfer.
func (x *txWorld) finish(t *transfer, at sim.Time, aborted bool) {
	if aborted {
		x.aborted++
	} else {
		x.completed++
		if t.idx >= x.sp.Transfers/4 {
			x.lat = append(x.lat, int64(at.Sub(t.start)))
		}
		if x.warm && !x.lastStarted {
			x.ackedInWindow += txTransferBytes
		}
	}
	if err := x.a.Close(t.conn); err != nil {
		x.fail(fmt.Errorf("close transfer %d: %w", t.idx, err))
	}
	delete(x.responders, t.port)
	cl := &x.clients[t.client]
	x.fold(cl.prev)
	cl.prev, cl.cur = t, nil
	if x.started >= x.sp.Transfers {
		return
	}
	if err := x.open(t.client); err != nil {
		x.fail(err)
		return
	}
	x.begin(cl.cur)
}

// peer is the far end of the wire: every frame that survives the Tx fault
// model lands here and is handed to its transfer's responder.
func (x *txWorld) peer(p *packet.Packet, at sim.Time) {
	x.peerFrames++
	if x.peerFrames&63 == 0 {
		x.pendingSum += uint64(x.w.Eng.Pending())
		x.pendingN++
	}
	if d := x.wfq.Len(); d > x.qdepthMax {
		x.qdepthMax = d
	}
	if x.tracedLat != nil {
		m := x.w.Model
		x.tracedLat.put(p.Meta.Trace, int64(at.Sub(p.Meta.Enqueued)-sim.Duration(m.WireLatency)-m.Wire(p.FrameLen())))
	}
	if p.TCP == nil {
		return
	}
	if r := x.responders[p.TCP.DstPort]; r != nil {
		r.Recv(p, at)
	}
}

func (x *txWorld) run(rec *spanRec) {
	eng := x.w.Eng
	eng.At(0, func() {
		for i := range x.clients {
			x.begin(x.clients[i].cur)
		}
	})
	// A closed loop has no schedule to run until: the run phase is one
	// drain, which ends when the last transfer is terminal.
	id := rec.begin("RunUntil")
	eng.Run()
	rec.end(id)
	id = rec.begin("drain")
	eng.Run()
	rec.end(id)
}

func (x *txWorld) collect() (modelResult, counts, error) {
	var res modelResult
	for i := range x.clients {
		x.fold(x.clients[i].prev)
		x.clients[i].prev = nil
	}
	if x.err != nil {
		return res, nil, x.err
	}
	n := x.w.NIC
	if x.started != x.sp.Transfers || x.retired != x.sp.Transfers {
		return res, nil, fmt.Errorf("attempted %d transfers (%d retired), workload size is %d", x.started, x.retired, x.sp.Transfers)
	}
	if x.completed+x.aborted != x.sp.Transfers {
		return res, nil, fmt.Errorf("%d completed + %d aborted != %d transfers", x.completed, x.aborted, x.sp.Transfers)
	}
	// Zero silent loss, hop by hop: application → NIC → wire → peer → wire
	// → NIC → application.
	qdrops := x.wfq.Stats().DropPackets
	if out := x.a.TxAppDrops + n.TxFrames + n.TxDropVerdict + n.TxOutageDrop + qdrops; x.segs != out {
		return res, nil, fmt.Errorf("silent tx loss: %d segments sent != %d ring drops + %d on wire + %d verdict + %d outage + %d qdisc",
			x.segs, x.a.TxAppDrops, n.TxFrames, n.TxDropVerdict, n.TxOutageDrop, qdrops)
	}
	if x.inj.Tx.Frames != n.TxFrames || x.peerFrames != x.inj.Tx.Frames-x.inj.Tx.Dropped() {
		return res, nil, fmt.Errorf("silent wire loss (tx): NIC sent %d, wire saw %d, lost %d, peer got %d",
			n.TxFrames, x.inj.Tx.Frames, x.inj.Tx.Dropped(), x.peerFrames)
	}
	if x.peerAcks != x.inj.Rx.Frames || n.RxWire != x.inj.Rx.Frames-x.inj.Rx.Dropped() {
		return res, nil, fmt.Errorf("silent wire loss (rx): peer acked %d, wire saw %d, lost %d, NIC got %d",
			x.peerAcks, x.inj.Rx.Frames, x.inj.Rx.Dropped(), n.RxWire)
	}
	if drops := rxTypedDrops(n); n.RxWire != x.appDelivered+x.abandoned+drops {
		return res, nil, fmt.Errorf("silent rx loss: NIC got %d != delivered %d + closed-ring %d + typed drops %d",
			n.RxWire, x.appDelivered, x.abandoned, drops)
	}
	if err := checkFlowCacheLedger(n); err != nil {
		return res, nil, err
	}

	res.Frames = x.segs + n.RxWire
	res.Ops, res.FailedOps = uint64(x.sp.Transfers), uint64(x.sp.Transfers-x.completed)
	res.GoodputGbps = float64(x.ackedInWindow) * 8 / x.tLastStart.Sub(x.tWarm).Seconds() / 1e9
	var latSum uint64
	res.LatP50us, res.LatP99us, latSum = latencyStats(x.lat)
	res.LatSamples = len(x.lat)
	res.DeliveredPct = pct(uint64(x.completed), uint64(x.sp.Transfers))
	res.CPUCores = cpuCores(x.w)

	c := counts{}
	h := newFNV()
	h.add(uint64(x.completed), uint64(x.aborted), x.ackedInWindow, latSum, uint64(x.tWarm), uint64(x.tLastStart),
		x.segs, x.rexmit, x.fastRexmit, x.timeouts, x.peerAcks, x.appDelivered, x.abandoned, qdrops,
		x.inj.Tx.Lost, x.inj.Rx.Lost, uint64(x.qdepthMax))
	worldCounts(x.w, res.Frames, x.pendingSum, x.pendingN, x.pids, c, &h)
	c["kernel.connects"] = float64(x.started)
	c["mem.ring_produced"] = float64(x.ringProduced)
	c["mem.ring_dropped"] = float64(x.ringDropped)
	var pushed uint64
	for _, cl := range x.clients {
		np, _ := cl.proc.Queue.Counters()
		pushed += np
	}
	c["mem.notify_pushed"] = float64(pushed)
	c["transport.segments_sent"] = float64(x.segs)
	c["transport.retransmits"] = float64(x.rexmit)
	c["transport.fast_retransmits"] = float64(x.fastRexmit)
	c["transport.timeouts"] = float64(x.timeouts)
	c["transport.peer_acks"] = float64(x.peerAcks)
	c["qos.queue_depth_max"] = float64(x.qdepthMax)
	c["qos.dropped"] = float64(qdrops)
	_, matched, _ := x.tap.Counters()
	c["sniff.matched"] = float64(matched)
	c["faults.wire_lost"] = float64(x.inj.Tx.Lost + x.inj.Rx.Lost)
	c["faults.wire_corrupted"] = float64(x.inj.Tx.Corrupted + x.inj.Rx.Corrupted)
	h.add(x.ringProduced, x.ringDropped, pushed, matched)
	res.Fingerprint = uint64(h)
	return res, c, nil
}

func (x *txWorld) probeInputs() probeInputs {
	in := probeInputs{tx: true, ringSize: x.w.NIC.RingSize(), model: x.w.Model}
	if m := x.w.NIC.Machine(nic.Egress); m != nil {
		in.prog = m.Program()
	}
	for i := 0; i < txClients; i++ {
		in.flows = append(in.flows, x.flowOf(i))
	}
	return in
}
