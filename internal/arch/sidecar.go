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

// Sidecar is the IX/Snap-style dedicated dataplane core (§1's "physical
// movement" alternative): applications exchange packets with an
// OS-integrated dataplane process over shared-memory rings, and that
// process — pinned to its own core, polling — runs the interposition logic
// in software before touching the NIC. Full manageability, one burned core,
// and per-packet coherence traffic between cores.
type Sidecar struct {
	base

	fw       *filter.Engine
	sched    qos.Qdisc
	classify func(*packet.Packet) uint32
	tap      *sniff.Tap

	sq      *nic.Conn // sidecar-owned NIC queue
	pumping bool

	// Per-connection app<->sidecar rings.
	appRings map[uint64]*appRings

	RxNoConn uint64

	pings pinger
}

type appRings struct {
	toSidecar *mem.Ring
	toApp     *mem.Ring
	draining  bool // a TX drain loop on the dataplane core is active
}

// NewSidecar builds the architecture on a world.
func NewSidecar(w *World) *Sidecar {
	a := &Sidecar{
		base:     newBase(w),
		fw:       filter.NewEngine(true), // OS-integrated: has the process view
		appRings: map[uint64]*appRings{},
	}
	a.fw.EnableConntrack(filter.NewConntrack(1<<16, 120*sim.Second))
	snapProc := w.Kern.Spawn(0, "snap-dataplane")
	ci, err := w.Kern.RegisterConn(snapProc, packet.FlowKey{})
	if err != nil {
		panic("arch: registering sidecar queue: " + err.Error())
	}
	sq, err := w.NIC.OpenConn(ci.ID, packet.Meta{ConnID: ci.ID}, nil)
	if err != nil {
		panic("arch: opening sidecar NIC queue: " + err.Error())
	}
	w.NIC.SetDefaultConn(ci.ID)
	a.sq = sq
	w.NIC.OnRxDeliver = a.onRxDeliver
	w.NIC.OnTransmit = w.SendOnWire
	// The dataplane core spins regardless of load — the §2 scheduling
	// scenario's "burning CPU cores" made structural.
	w.MarkPoller(w.KernCore())
	return a
}

// Name implements Arch.
func (a *Sidecar) Name() string { return "sidecar" }

// Caps implements Arch.
func (a *Sidecar) Caps() Caps {
	return Caps{
		OwnerFiltering:     true,
		GlobalCapture:      true,
		CaptureAttribution: true,
		ProcessQoS:         true,
		FlowQoS:            true,
		BlockingIO:         true,
		ARPVisibility:      true,
		Transfers:          2,
		BurnsCore:          true,
	}
}

// Connect allocates the shared-memory ring pair between the app and the
// dataplane core.
func (a *Sidecar) Connect(proc *kernel.Process, flow packet.FlowKey) (*Conn, error) {
	ci, err := a.w.Kern.RegisterConn(proc, flow)
	if err != nil {
		return nil, err
	}
	a.appRings[ci.ID] = &appRings{
		toSidecar: mem.NewRing(1024, a.w.Alloc.Take(1024*64, 4096)),
		toApp:     mem.NewRing(1024, a.w.Alloc.Take(1024*64, 4096)),
	}
	c := &Conn{Info: ci, Mode: RxBlock} // OS-integrated: blocking works
	a.register(c)
	return c, nil
}

// Close implements Arch.
func (a *Sidecar) Close(c *Conn) error {
	a.unregister(c)
	delete(a.appRings, c.Info.ID)
	return a.w.Kern.UnregisterConn(c.Info.ID)
}

// sidecarFixed is the per-packet software cost on the dataplane core — Snap
// engines are leaner than the full kernel stack.
func (a *Sidecar) sidecarFixed() sim.Duration { return a.w.Model.Cycles(300) }

// Send: the app publishes into its shared ring (cheap), then the dataplane
// core pulls the packet across the coherence fabric, interposes, and drives
// the NIC.
func (a *Sidecar) Send(c *Conn, p *packet.Packet) {
	m := a.w.Model
	now := a.w.Eng.Now()
	appCore := c.core
	rings := a.appRings[c.Info.ID]

	_, appDone := appCore.Acquire(now, m.Cycles(60))
	a.w.Eng.At(appDone, func() {
		if err := rings.toSidecar.Push(mem.Desc{Pkt: p, Produced: a.w.Eng.Now()}); err != nil {
			a.TxAppDrops++
			return
		}
		a.kickTx(c, rings)
	})
}

// SendBatch publishes a burst into the shared ring in one go; the dataplane
// core picks the whole burst up on its next poll iteration.
func (a *Sidecar) SendBatch(c *Conn, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	m := a.w.Model
	now := a.w.Eng.Now()
	appCore := c.core
	rings := a.appRings[c.Info.ID]
	batch := append([]*packet.Packet(nil), pkts...)
	_, appDone := appCore.Acquire(now, m.Cycles(60*len(pkts)))
	a.w.Eng.At(appDone, func() {
		for _, p := range batch {
			if err := rings.toSidecar.Push(mem.Desc{Pkt: p, Produced: a.w.Eng.Now()}); err != nil {
				a.TxAppDrops++
			}
		}
		a.kickTx(c, rings)
	})
}

// kickTx starts the dataplane core's drain of a connection's shared ring if
// it is not already running. The drain is paced by the core: the next pop
// happens only after the previous packet's processing completes, so the
// bounded ring — not an unbounded core backlog — absorbs overload and
// backpressures the application.
func (a *Sidecar) kickTx(c *Conn, rings *appRings) {
	if rings.draining {
		return
	}
	rings.draining = true
	// The polling dataplane core notices the ring within one iteration.
	a.w.Eng.After(sim.Duration(a.w.Model.PollIteration), func() { a.drainAppTx(c, rings) })
}

func (a *Sidecar) drainAppTx(c *Conn, rings *appRings) {
	desc, err := rings.toSidecar.Pop()
	if err != nil {
		rings.draining = false
		return
	}
	done := a.sidecarTx(c, desc.Pkt)
	a.w.Eng.At(done, func() { a.drainAppTx(c, rings) })
}

// sidecarTx is the dataplane-core egress half; it returns when the core
// finishes this packet so the drain loop can pace itself.
func (a *Sidecar) sidecarTx(c *Conn, p *packet.Packet) sim.Time {
	m := a.w.Model
	now := a.w.Eng.Now()

	meta := a.w.Kern.Meta(c.Info)
	meta.Enqueued = now
	p.Meta = meta

	cost := m.CrossCore(64+p.FrameLen()) + a.sidecarFixed()
	res := a.fw.EvaluateAt(filter.HookOutput, p, now)
	cost += softFilterCost(m, res)
	if a.tap != nil {
		a.tap.Offer(p, now)
	}
	a.w.Kern.ARP().Observe(p, now, true)
	_, done := a.w.KernCore().Acquire(now, cost)
	if res.Action != filter.ActAccept {
		return done
	}
	a.w.Eng.At(done, func() {
		if a.classify != nil {
			p.Meta.Class = a.classify(p)
		}
		if a.sched != nil {
			a.sched.Enqueue(p, a.w.Eng.Now())
			a.pumpTx()
			return
		}
		a.pushToNIC(p)
	})
	return done
}

// pumpTx drains the software qdisc into the NIC ring.
func (a *Sidecar) pumpTx() {
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
		if a.sq.TX.Len() >= 4 {
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
			a.pushToNIC(p)
			return
		}
		// No progress: a shaped qdisc deferred; retry shortly.
		a.w.Eng.After(100*sim.Nanosecond, a.pumpTx)
	})
}

func (a *Sidecar) pushToNIC(p *packet.Packet) {
	m := a.w.Model
	now := a.w.Eng.Now()
	_, done := a.w.KernCore().Acquire(now, m.Cycles(30)+sim.Duration(m.MMIOWrite))
	a.w.Eng.At(done, func() {
		if err := a.sq.TX.Push(mem.Desc{Pkt: p, Produced: p.Meta.Enqueued}); err != nil {
			a.TxAppDrops++
			return
		}
		a.w.NIC.DoorbellTx(a.sq)
		a.pumpTx()
	})
}

// DeliverWire implements Arch.
func (a *Sidecar) DeliverWire(p *packet.Packet) { a.w.NIC.DeliverFromWire(p) }

// onRxDeliver is the dataplane-core ingress half: pop the NIC queue,
// interpose, push the packet across the fabric to the owning app.
func (a *Sidecar) onRxDeliver(nc *nic.Conn, at sim.Time) {
	if nc.ID != a.sq.ID {
		return
	}
	desc, err := nc.RX.Pop()
	if err != nil {
		return
	}
	p := desc.Pkt
	m := a.w.Model
	now := a.w.Eng.Now()

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

	cost := a.sidecarFixed()
	res := a.fw.EvaluateAt(filter.HookInput, p, now)
	cost += softFilterCost(m, res)
	if a.tap != nil {
		a.tap.Offer(p, now)
	}
	a.w.Kern.ARP().Observe(p, now, false)
	_, done := a.w.KernCore().Acquire(now, cost)
	if res.Action != filter.ActAccept {
		return
	}
	// The OS-integrated dataplane answers host ARP and ICMP echo itself.
	if p.ARP != nil && p.ARP.Op == packet.ARPRequest && p.ARP.TargetIP == a.w.HostIP {
		reply := packet.NewARPReply(a.w.HostMAC, a.w.HostIP, p.ARP.SenderHW, p.ARP.SenderIP)
		a.w.Eng.At(done, func() { a.w.NIC.InjectTx(reply) })
		return
	}
	if p.IsEchoRequestTo(a.w.HostIP) {
		reply := packet.EchoReplyTo(p)
		a.w.Eng.At(done, func() { a.w.NIC.InjectTx(reply) })
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
	rings := a.appRings[c.Info.ID]
	a.w.Eng.At(done, func() {
		if err := rings.toApp.Push(mem.Desc{Pkt: p, Produced: p.Meta.Enqueued}); err != nil {
			return // app ring overflow
		}
		d, err := rings.toApp.Pop()
		if err != nil {
			return
		}
		// App-side cost includes pulling the payload across the fabric.
		appCost := m.Cycles(40) + m.CrossCore(64+d.Pkt.FrameLen())
		if c.Mode == RxBlock {
			// The dataplane core can signal the kernel scheduler.
			a.deliverWoken(c, d.Pkt, a.w.Eng.Now(), appCost)
		} else {
			a.deliverPolled(c, d.Pkt, a.w.Eng.Now(), appCost)
		}
	})
}

// SetRxMode supports both modes (the dataplane core sees every arrival).
func (a *Sidecar) SetRxMode(c *Conn, mode RxMode) error {
	c.Mode = mode
	if mode == RxPoll {
		a.w.MarkPoller(a.w.Core(c.Info.PID))
	} else {
		a.w.UnmarkPoller(a.w.Core(c.Info.PID))
	}
	return nil
}

// InstallRule implements Arch: software rules with full owner support.
func (a *Sidecar) InstallRule(h filter.Hook, r *filter.Rule) error {
	return a.fw.Append(h, r)
}

// FlushRules implements Arch.
func (a *Sidecar) FlushRules() error {
	a.fw.Flush(filter.HookInput)
	a.fw.Flush(filter.HookOutput)
	return nil
}

// RuleHits reads the idx'th rule's software hit counter.
func (a *Sidecar) RuleHits(h filter.Hook, idx int) (uint64, bool) {
	rules := a.fw.Chain(h).Rules
	if idx < 0 || idx >= len(rules) {
		return 0, false
	}
	return rules[idx].Packets, true
}

// SetQdisc installs a software qdisc on the dataplane core.
func (a *Sidecar) SetQdisc(q qos.Qdisc, classify func(*packet.Packet) uint32) error {
	a.sched = q
	a.classify = classify
	return nil
}

// AttachTap captures on the dataplane core with full attribution.
func (a *Sidecar) AttachTap(e *sniff.Expr) (*sniff.Tap, error) {
	a.tap = sniff.NewTap(e, 0)
	return a.tap, nil
}

// Ping sends a dataplane-core-originated ICMP echo.
func (a *Sidecar) Ping(dst packet.IPv4, payload int, done func(sim.Duration, bool)) error {
	now := a.w.Eng.Now()
	id := a.pings.start(now, done)
	req := packet.NewICMPEcho(a.w.HostMAC, a.w.PeerMAC, a.w.HostIP, dst,
		packet.ICMPEchoRequest, id, 1, payload)
	_, done2 := a.w.KernCore().Acquire(now, a.sidecarFixed())
	a.w.Eng.At(done2, func() { a.w.NIC.InjectTx(req) })
	a.w.Eng.After(pingTimeout, func() { a.pings.expire(id) })
	return nil
}
