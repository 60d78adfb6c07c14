package arch

import (
	"norman/internal/filter"
	"norman/internal/kernel"
	"norman/internal/mem"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/sniff"
)

// KernelStack is the traditional in-kernel dataplane (§1's baseline): every
// packet crosses the user/kernel boundary (syscall + copy — virtual data
// movement), netfilter and the qdisc run in software, and the NIC is a dumb
// queue the kernel owns. Full manageability, two transfers per packet, and
// the software stack as the bottleneck.
type KernelStack struct {
	base

	fw       *filter.Engine
	sched    qos.Qdisc
	classify func(*packet.Packet) uint32
	tap      *sniff.Tap

	kq        *nic.Conn   // kernel-owned NIC queue 0 (also TX and management)
	queues    []*nic.Conn // all kernel queues (RSS multi-queue when >1)
	qIndex    map[uint64]int
	pumping   bool
	RxNoConn  uint64
	RingRetry uint64

	// cpDown marks the control plane crashed. On this architecture the
	// control plane IS the dataplane — the same kernel stack that holds the
	// policy tables also moves every packet — so a crash stops traffic:
	// sends and softirq deliveries are dropped (rings reset on reboot)
	// until restart. CtlOutageDrops counts them; E10 tables the contrast
	// against the ring architectures, whose NICs keep forwarding.
	cpDown         bool
	CtlOutageDrops uint64

	pings pinger
}

// NewKernelStack builds the architecture on a world.
func NewKernelStack(w *World) *KernelStack {
	a := &KernelStack{
		base: newBase(w),
		fw:   filter.NewEngine(true),
	}
	a.fw.EnableConntrack(filter.NewConntrack(1<<16, 120*sim.Second))
	// The kernel owns one NIC queue pair per softirq core; RSS spreads
	// inbound flows across them (multi-queue NICs + RPS, as real kernels
	// configure).
	kernProc := w.Kern.Spawn(0, "kernel")
	a.qIndex = map[uint64]int{}
	nq := w.KernQueues()
	ids := make([]uint64, 0, nq)
	for i := 0; i < nq; i++ {
		ci, err := w.Kern.RegisterConn(kernProc, packet.FlowKey{SrcPort: uint16(i)})
		if err != nil {
			panic("arch: registering kernel queue: " + err.Error())
		}
		q, err := w.NIC.OpenConn(ci.ID, packet.Meta{ConnID: ci.ID}, nil)
		if err != nil {
			panic("arch: opening kernel NIC queue: " + err.Error())
		}
		a.queues = append(a.queues, q)
		a.qIndex[ci.ID] = i
		ids = append(ids, ci.ID)
	}
	a.kq = a.queues[0]
	if nq > 1 {
		if err := w.NIC.SetRSS(nic.DefaultRSSKey, ids); err != nil {
			panic("arch: kernel rss: " + err.Error())
		}
	} else {
		w.NIC.SetDefaultConn(ids[0])
	}
	w.NIC.OnRxDeliver = a.onRxDeliver
	w.NIC.OnTransmit = w.SendOnWire
	return a
}

// Name implements Arch.
func (a *KernelStack) Name() string { return "kernelstack" }

// Caps implements Arch.
func (a *KernelStack) Caps() Caps {
	return Caps{
		OwnerFiltering:     true,
		GlobalCapture:      true,
		CaptureAttribution: true,
		ProcessQoS:         true,
		FlowQoS:            true,
		BlockingIO:         true,
		ARPVisibility:      true,
		Transfers:          2,
	}
}

// Connect registers the connection in the kernel tables only — apps have no
// NIC resources of their own here.
func (a *KernelStack) Connect(proc *kernel.Process, flow packet.FlowKey) (*Conn, error) {
	ci, err := a.w.Kern.RegisterConn(proc, flow)
	if err != nil {
		return nil, err
	}
	c := &Conn{Info: ci, Mode: RxBlock} // blocking I/O is the kernel default
	a.register(c)
	return c, nil
}

// Close implements Arch.
func (a *KernelStack) Close(c *Conn) error {
	a.unregister(c)
	return a.w.Kern.UnregisterConn(c.Info.ID)
}

// Send is the two-transfer TX path: syscall + copy into the kernel on the
// app core, then protocol work, filtering, qdisc and doorbell on the kernel
// core.
func (a *KernelStack) Send(c *Conn, p *packet.Packet) {
	if a.cpDown {
		a.CtlOutageDrops++
		return
	}
	m := a.w.Model
	now := a.w.Eng.Now()
	appCore := c.core

	// Transfer 1: user -> kernel.
	_, sysDone := appCore.Acquire(now, sim.Duration(m.Syscall)+m.Copy(p.FrameLen()))
	a.w.Eng.At(sysDone, func() { a.kernelTx(c, p) })
}

// SendBatch is sendmmsg(2): one syscall crossing amortized over the burst,
// with the copies and all in-kernel work still paid per packet.
func (a *KernelStack) SendBatch(c *Conn, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	if a.cpDown {
		a.CtlOutageDrops += uint64(len(pkts))
		return
	}
	m := a.w.Model
	now := a.w.Eng.Now()
	appCore := c.core
	cost := sim.Duration(m.Syscall)
	for _, p := range pkts {
		cost += m.Copy(p.FrameLen())
	}
	batch := append([]*packet.Packet(nil), pkts...)
	_, sysDone := appCore.Acquire(now, cost)
	a.w.Eng.At(sysDone, func() {
		for _, p := range batch {
			a.kernelTx(c, p)
		}
	})
}

// kernelTx is the in-kernel half of the TX path: stamp metadata, OUTPUT
// chain, capture, qdisc, doorbell. As in Linux, it executes synchronously in
// process context on the *sender's* core (sendmsg runs the stack down to the
// driver), which is what makes the kernel stack self-backpressuring: an
// application cannot offer more than its core can push through the stack.
func (a *KernelStack) kernelTx(c *Conn, p *packet.Packet) {
	if a.cpDown {
		a.CtlOutageDrops++
		return
	}
	m := a.w.Model
	now := a.w.Eng.Now()
	appCore := c.core
	// The kernel stamps trusted metadata from process context; the lifecycle
	// trace ID rides along (metadata replacement must not orphan the span).
	meta := a.w.Kern.Meta(c.Info)
	trace := p.Meta.Trace
	p.Meta = meta
	p.Meta.Enqueued = now
	p.Meta.Trace = trace
	a.traceStamp(p)
	a.trace(p, now, "host", "syscall_send", "kernel stack")

	kcost := sim.Duration(m.KernelStackFixed)
	res := a.fw.EvaluateAt(filter.HookOutput, p, now)
	kcost += softFilterCost(m, res)
	if a.tap != nil {
		a.tap.Offer(p, now)
	}
	a.w.Kern.ARP().Observe(p, now, true)
	_, kdone := appCore.Acquire(now, kcost)
	if res.Action != filter.ActAccept {
		a.trace(p, now, "host", "netfilter_drop", "chain=OUTPUT")
		return // dropped by OUTPUT chain
	}
	a.w.Eng.At(kdone, func() {
		if a.classify != nil {
			p.Meta.Class = a.classify(p)
		}
		if a.sched != nil {
			a.sched.Enqueue(p, a.w.Eng.Now())
			a.pumpTx()
			return
		}
		a.pushToNIC(p, appCore)
	})
}

// pumpTx drains the software qdisc into the NIC ring, one pending event at
// a time.
func (a *KernelStack) pumpTx() {
	if a.pumping || a.sched == nil {
		return
	}
	now := a.w.Eng.Now()
	at, ok := a.sched.ReadyAt(now)
	if !ok {
		return
	}
	if at < now {
		at = now
	}
	a.pumping = true
	a.w.Eng.At(at, func() {
		a.pumping = false
		now := a.w.Eng.Now()
		// Byte-queue-limit: keep only a few frames in the NIC ring so the
		// qdisc — not the FIFO ring — is where packets wait. Without this
		// the deep ring erases the scheduler's differentiation, the exact
		// bufferbloat problem BQL fixes in Linux.
		if a.kq.TX.Len() >= 4 {
			// NIC ring backpressure: retry after roughly one frame time.
			a.RingRetry++
			a.pumping = true
			a.w.Eng.After(a.w.Model.Wire(1538), func() {
				a.pumping = false
				a.pumpTx()
			})
			return
		}
		if p, ok := a.sched.Dequeue(now); ok {
			// pushToNIC re-arms the pump once its push has landed, so the
			// BQL check above always sees the true ring occupancy.
			a.pushToNIC(p, a.w.KernCore())
			return
		}
		// No progress: a shaped qdisc deferred; retry shortly.
		a.w.Eng.After(100*sim.Nanosecond, a.pumpTx)
	})
}

// pushToNIC is transfer 2: kernel -> NIC via descriptor ring + doorbell,
// charged to whichever core runs it (process context for direct transmits,
// the softirq core for pump-driven dequeues).
func (a *KernelStack) pushToNIC(p *packet.Packet, core *sim.Server) {
	m := a.w.Model
	now := a.w.Eng.Now()
	_, done := core.Acquire(now, m.Cycles(30)+sim.Duration(m.MMIOWrite))
	a.w.Eng.At(done, func() {
		if err := a.kq.TX.Push(mem.Desc{Pkt: p, Produced: p.Meta.Enqueued}); err != nil {
			a.TxAppDrops++
			a.trace(p, a.w.Eng.Now(), "ring", "tx_drop_full", "")
			return
		}
		a.trace(p, a.w.Eng.Now(), "ring", "tx_enqueue", "kernel queue")
		a.w.NIC.DoorbellTx(a.kq)
		a.pumpTx()
	})
}

// DeliverWire implements Arch.
func (a *KernelStack) DeliverWire(p *packet.Packet) { a.w.NIC.DeliverFromWire(p) }

// onRxDeliver is the kernel softirq path: pop from the kernel queue,
// protocol work, INPUT filtering, demux to the owning socket, then wake the
// blocked receiver (or leave it for its poll).
func (a *KernelStack) onRxDeliver(nc *nic.Conn, at sim.Time) {
	qi, ok := a.qIndex[nc.ID]
	if !ok {
		return
	}
	kernCore := a.w.KernCoreN(qi)
	desc, err := nc.RX.Pop()
	if err != nil {
		return
	}
	if a.cpDown {
		// The crashed kernel is not running softirqs; the descriptor is
		// popped (rings reset on reboot) and the frame is gone.
		a.CtlOutageDrops++
		return
	}
	p := desc.Pkt
	m := a.w.Model
	now := a.w.Eng.Now()

	kcost := sim.Duration(m.KernelStackFixed)

	// Demux to the owning connection first, so filtering and capture carry
	// attribution.
	var c *Conn
	if k, ok := p.Flow(); ok {
		if ci, ok := a.w.Kern.ConnByFlow(k.Reverse()); ok {
			if cc, ok := a.connFor(ci.ID); ok {
				c = cc
				meta := a.w.Kern.Meta(ci)
				meta.Enqueued = p.Meta.Enqueued
				p.Meta = meta
			}
		}
	}

	res := a.fw.EvaluateAt(filter.HookInput, p, now)
	kcost += softFilterCost(m, res)
	if a.tap != nil {
		a.tap.Offer(p, now)
	}
	a.w.Kern.ARP().Observe(p, now, false)

	_, kdone := kernCore.Acquire(now, kcost)
	if res.Action != filter.ActAccept {
		return
	}
	// The kernel answers ARP and ICMP echo for the host's address itself —
	// applications never see either under the kernel stack.
	if p.ARP != nil && p.ARP.Op == packet.ARPRequest && p.ARP.TargetIP == a.w.HostIP {
		reply := packet.NewARPReply(a.w.HostMAC, a.w.HostIP, p.ARP.SenderHW, p.ARP.SenderIP)
		a.w.Eng.At(kdone, func() { a.w.NIC.InjectTx(reply) })
		return
	}
	if p.IsEchoRequestTo(a.w.HostIP) {
		reply := packet.EchoReplyTo(p)
		a.w.Eng.At(kdone, func() { a.w.NIC.InjectTx(reply) })
		return
	}
	if p.ICMP != nil && p.ICMP.Type == packet.ICMPEchoReply && p.IP != nil && p.IP.Dst == a.w.HostIP {
		a.pings.complete(p.ICMP.ID, now)
		return
	}
	if c == nil {
		a.RxNoConn++
		return
	}
	// Transfer 2: kernel -> user copy, charged on the app core along with
	// the recv syscall, after wake.
	appCost := sim.Duration(m.Syscall) + m.Copy(p.FrameLen())
	if c.Mode == RxBlock {
		a.deliverWoken(c, p, kdone, appCost)
	} else {
		a.deliverPolled(c, p, kdone, appCost)
	}
}

// SetRxMode supports both modes: the kernel sees every arrival.
func (a *KernelStack) SetRxMode(c *Conn, mode RxMode) error {
	c.Mode = mode
	if mode == RxPoll {
		a.w.MarkPoller(a.w.Core(c.Info.PID))
	} else {
		a.w.UnmarkPoller(a.w.Core(c.Info.PID))
	}
	return nil
}

// InstallRule implements Arch: software netfilter, full owner support.
func (a *KernelStack) InstallRule(h filter.Hook, r *filter.Rule) error {
	return a.fw.Append(h, r)
}

// FlushRules implements Arch.
func (a *KernelStack) FlushRules() error {
	a.fw.Flush(filter.HookInput)
	a.fw.Flush(filter.HookOutput)
	return nil
}

// RuleHits reads the idx'th rule's software hit counter.
func (a *KernelStack) RuleHits(h filter.Hook, idx int) (uint64, bool) {
	rules := a.fw.Chain(h).Rules
	if idx < 0 || idx >= len(rules) {
		return 0, false
	}
	return rules[idx].Packets, true
}

// SetQdisc installs a software qdisc on the kernel TX path.
func (a *KernelStack) SetQdisc(q qos.Qdisc, classify func(*packet.Packet) uint32) error {
	a.sched = q
	a.classify = classify
	return nil
}

// AttachTap captures in the kernel with full attribution.
func (a *KernelStack) AttachTap(e *sniff.Expr) (*sniff.Tap, error) {
	a.tap = sniff.NewTap(e, 0)
	return a.tap, nil
}

// Filter exposes the software engine (tools list rules through it).
func (a *KernelStack) Filter() *filter.Engine { return a.fw }

// Qdisc exposes the software egress scheduler (the reconciler diffs it
// against journaled intent).
func (a *KernelStack) Qdisc() qos.Qdisc { return a.sched }

// CrashControlPlane implements ControlPlaneCrasher: a kernel-stack crash
// takes the policy tables *and* the dataplane with it — netfilter chains,
// qdisc and classifier evaporate, and until restart every packet in either
// direction is dropped (CtlOutageDrops).
func (a *KernelStack) CrashControlPlane() {
	a.cpDown = true
	a.fw = filter.NewEngine(true)
	a.fw.EnableConntrack(filter.NewConntrack(1<<16, 120*sim.Second))
	a.sched = nil
	a.classify = nil
}

// RestartControlPlane implements ControlPlaneCrasher; the reconciler
// reinstalls policies afterwards.
func (a *KernelStack) RestartControlPlane() { a.cpDown = false }

// ControlPlaneDown implements ControlPlaneCrasher.
func (a *KernelStack) ControlPlaneDown() bool { return a.cpDown }

// Ping sends a kernel-originated ICMP echo and completes when the softirq
// path sees the reply.
func (a *KernelStack) Ping(dst packet.IPv4, payload int, done func(sim.Duration, bool)) error {
	now := a.w.Eng.Now()
	id := a.pings.start(now, done)
	req := packet.NewICMPEcho(a.w.HostMAC, a.w.PeerMAC, a.w.HostIP, dst,
		packet.ICMPEchoRequest, id, 1, payload)
	m := a.w.Model
	_, kdone := a.w.KernCore().Acquire(now, sim.Duration(m.KernelStackFixed))
	a.w.Eng.At(kdone, func() { a.w.NIC.InjectTx(req) })
	a.w.Eng.After(pingTimeout, func() { a.pings.expire(id) })
	return nil
}
