package arch

import (
	"norman/internal/filter"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/timing"
)

// base carries the bookkeeping every architecture shares.
type base struct {
	w       *World
	deliver DeliverFunc
	conns   map[uint64]*Conn // by kernel conn id

	pings   map[uint16]pendingPing // in-flight kernel pings by ICMP id
	pingSeq uint16

	// sched is the software qdisc above the NIC's TX ring: set only by the
	// software dataplanes (soft.go), here because its backlog is a term of
	// the host's conservation law. Ring architectures schedule on the NIC.
	sched qos.Qdisc

	// The host's conservation ledger (exits.go). TxAppDrops is the tx_ring
	// reason's counter under the name its readers know.
	TxAppDrops uint64
	drops      [NumHostReasons]uint64
	sent       uint64 // packets applications handed to Send/SendBatch
	handed     uint64 // pushed into a NIC TX ring
	popped     uint64 // popped from a NIC RX ring
	delivered  uint64 // upcalled into an application
	absorbed   uint64 // consumed by the host itself: ARP, echo, ping replies
}

// init wires the bookkeeping into a world. Like direct.init it runs on the
// struct's final heap location: the world and every hop keep the pointer.
func (b *base) init(w *World) {
	*b = base{w: w, conns: map[uint64]*Conn{}, pings: map[uint16]pendingPing{}}
	w.host = b
}

// World implements Arch.
func (b *base) World() *World { return b.w }

// SetDeliver implements Arch.
func (b *base) SetDeliver(fn DeliverFunc) { b.deliver = fn }

// upcall hands a packet to the application: the connection's own handler,
// else the architecture-wide one. The handler borrows p; its return ends the
// frame's journey.
func (b *base) upcall(c *Conn, p *packet.Packet, at sim.Time) {
	b.delivered++
	c.Delivered++
	c.LastDeliver = at
	b.trace(p, at, "host", "rx_deliver", "")
	if c.Deliver != nil {
		c.Deliver(c, p, at)
	} else if b.deliver != nil {
		b.deliver(c, p, at)
	}
	b.w.Frames.Recycle(p)
}

// traceStamp assigns a lifecycle trace ID to p at its first interposition
// point. No-op when tracing is off or p is already stamped (clones and
// retransmits keep their origin's ID).
func (b *base) traceStamp(p *packet.Packet) {
	if b.w.Tracer != nil && p.Meta.Trace == 0 {
		p.Meta.Trace = b.w.Tracer.StampID()
	}
}

// trace appends a span event for p when it carries a trace ID. One branch
// when tracing is off.
func (b *base) trace(p *packet.Packet, at sim.Time, layer, point, note string) {
	if b.w.Tracer == nil || p.Meta.Trace == 0 {
		return
	}
	b.w.Tracer.Record(p.Meta.Trace, at, layer, point, note)
}

// appRxCost is the application-side cost of consuming one descriptor:
// fixed ring bookkeeping, the descriptor-line touch (charged against the
// LLC — it usually hits the line DDIO just wrote), and a header fetch from
// the streamed payload (a partially hidden memory access). Ring-based
// consumption is zero-copy (§4.2: "abstractions that prevent unnecessary
// copies"), so the full payload is never copied.
// slotAddr must be the descriptor slot the packet occupied, captured before
// the Pop advanced the tail.
func (b *base) appRxCost(c *Conn, p *packet.Packet, slotAddr uint64) sim.Duration {
	cost := b.w.cycles(40)
	if c.NC != nil {
		cost += b.memTouch(slotAddr, 64)
		cost += sim.Duration(b.w.Model.DRAMAccess) / 2 // header fetch, OoO-overlapped
	} else {
		cost += b.w.copyCost(p.FrameLen())
	}
	return cost
}

// memTouch charges a CPU access of n bytes at addr against the LLC: a
// streaming copy cost plus a penalty scaled by the miss fraction.
func (b *base) memTouch(addr uint64, n int) sim.Duration {
	baseCost := b.w.copyCost(n)
	if b.w.LLC == nil {
		return baseCost
	}
	hits, lines := b.w.LLC.Touch(addr, n, false)
	if hits == lines {
		return baseCost // nothing missed (or nothing touched): no penalty to scale
	}
	missFrac := float64(lines-hits) / float64(lines)
	return baseCost + sim.Duration(b.w.Model.DRAMAccess).Scale(missFrac) + baseCost.Scale(0.5*missFrac)
}

// deliverPolled models a poll-mode app noticing and consuming a packet: the
// core is poll-pinned (accounted by MarkPoller), so we charge only the
// processing occupancy and half a poll iteration of discovery latency.
func (b *base) deliverPolled(c *Conn, p *packet.Packet, now sim.Time, appCost sim.Duration) {
	start := now.Add(sim.Duration(b.w.Model.PollIteration) / 2)
	if free := c.core.FreeAt(); free > start {
		start = free
	}
	h := b.w.hop(start, hopRun, b, c, p)
	h.core, h.cost = c.core, appCost
}

// deliverWoken models a blocked app being woken by the kernel: context
// switch on the app core, then processing.
func (b *base) deliverWoken(c *Conn, p *packet.Packet, wakeAt sim.Time, appCost sim.Duration) {
	h := b.w.hop(wakeAt, hopRun, b, c, p)
	h.core, h.cost = c.core, sim.Duration(b.w.Model.ContextSwitch)+appCost
}

// deliverTo hands p to c's application the way its receive mode asks.
func (b *base) deliverTo(c *Conn, p *packet.Packet, at sim.Time, appCost sim.Duration) {
	if c.Mode == RxBlock {
		b.deliverWoken(c, p, at, appCost)
	} else {
		b.deliverPolled(c, p, at, appCost)
	}
}

// DeliverWire implements Arch: frames off the wire enter the NIC.
func (b *base) DeliverWire(p *packet.Packet) { b.w.NIC.DeliverFromWire(p) }

// hostReply builds the host's own answer to a frame addressed to it — an ARP
// reply or an ICMP echo reply, which applications never see on an
// architecture whose kernel sees the frame — or nil.
func (b *base) hostReply(p *packet.Packet) *packet.Packet {
	w := b.w
	switch {
	case p.ARP != nil && p.ARP.Op == packet.ARPRequest && p.ARP.TargetIP == w.HostIP:
		return packet.NewARPReply(w.HostMAC, w.HostIP, p.ARP.SenderHW, p.ARP.SenderIP)
	case p.IsEchoRequestTo(w.HostIP):
		return packet.EchoReplyTo(p)
	}
	return nil
}

// pingReply completes the kernel ping that p, an echo reply to the host,
// answers; it reports whether p was one.
func (b *base) pingReply(p *packet.Packet, now sim.Time) bool {
	if p.ICMP == nil || p.ICMP.Type != packet.ICMPEchoReply || p.IP == nil || p.IP.Dst != b.w.HostIP {
		return false
	}
	b.pingDone(p.ICMP.ID, now, true)
	return true
}

// ping sends one kernel-originated ICMP echo through the NIC's management
// path after cost on the kernel core; pingReply completes it.
func (b *base) ping(dst packet.IPv4, payload int, cost sim.Duration, done func(sim.Duration, bool)) error {
	w := b.w
	now := w.Eng.Now()
	b.pingSeq++
	id := b.pingSeq
	b.pings[id] = pendingPing{sent: now, done: done}
	req := packet.NewICMPEcho(w.HostMAC, w.PeerMAC, w.HostIP, dst, packet.ICMPEchoRequest, id, 1, payload)
	_, at := w.KernCore().Acquire(now, cost)
	w.Eng.At(at, func() { w.NIC.InjectTx(req) })
	w.Eng.After(pingTimeout, func() { b.pingDone(id, 0, false) })
	return nil
}

// softFilterCost is the CPU time a software interposition layer spends
// evaluating a chain: fixed protocol bookkeeping plus per-rule work.
func softFilterCost(m *timing.Model, res filter.Result) sim.Duration {
	return m.Cycles(15 * res.RulesEvaluated)
}

// pendingPing is one in-flight kernel ping.
type pendingPing struct {
	sent sim.Time
	done func(sim.Duration, bool)
}

// pingDone resolves ping id once, as answered at now or as timed out: a
// duplicate reply, or the timeout after the reply, finds nothing pending.
func (b *base) pingDone(id uint16, now sim.Time, ok bool) {
	p, pending := b.pings[id]
	if !pending {
		return
	}
	delete(b.pings, id)
	var rtt sim.Duration
	if ok {
		rtt = now.Sub(p.sent)
	}
	if p.done != nil {
		p.done(rtt, ok)
	}
}

// pingTimeout is how long the kernel waits for an echo reply.
const pingTimeout = 100 * sim.Millisecond

// register records a new handle and pins its process's app core on it.
func (b *base) register(c *Conn) {
	c.core = b.w.Core(c.Info.PID)
	b.conns[c.Info.ID] = c
}

// unregister removes a handle and drops its delivery handler: a frame still
// on its way up goes to the architecture-wide DeliverFunc, and the handler —
// which usually points back at the handle — is garbage with it.
func (b *base) unregister(c *Conn) {
	delete(b.conns, c.Info.ID)
	c.Deliver = nil
}
