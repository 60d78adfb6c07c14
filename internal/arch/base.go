package arch

import (
	"norman/internal/filter"
	"norman/internal/packet"
	"norman/internal/sim"
)

// base carries the bookkeeping every architecture shares.
type base struct {
	w       *World
	deliver DeliverFunc
	conns   map[uint64]*Conn // by kernel conn id

	// Drops on the application TX path (ring full, no buffer).
	TxAppDrops uint64
}

func newBase(w *World) base {
	return base{w: w, conns: map[uint64]*Conn{}}
}

// World implements Arch.
func (b *base) World() *World { return b.w }

// SetDeliver implements Arch.
func (b *base) SetDeliver(fn DeliverFunc) { b.deliver = fn }

// upcall hands a packet to the application.
func (b *base) upcall(c *Conn, p *packet.Packet, at sim.Time) {
	c.Delivered++
	c.LastDeliver = at
	b.trace(p, at, "host", "rx_deliver", "")
	if b.deliver != nil {
		b.deliver(c, p, at)
	}
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
	m := b.w.Model
	cost := m.Cycles(40)
	if c.NC != nil {
		cost += b.memTouch(slotAddr, 64)
		cost += sim.Duration(m.DRAMAccess) / 2 // header fetch, OoO-overlapped
	} else {
		cost += m.Copy(p.FrameLen())
	}
	return cost
}

// memTouch charges a CPU access of n bytes at addr against the LLC: a
// streaming copy cost plus a penalty scaled by the miss fraction.
func (b *base) memTouch(addr uint64, n int) sim.Duration {
	m := b.w.Model
	baseCost := m.Copy(n)
	if b.w.LLC == nil {
		return baseCost
	}
	hits, lines := b.w.LLC.Touch(addr, n, false)
	if lines == 0 {
		return baseCost
	}
	missFrac := float64(lines-hits) / float64(lines)
	return baseCost + sim.Duration(m.DRAMAccess).Scale(missFrac) + baseCost.Scale(0.5*missFrac)
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

// softFilterCost is the CPU time a software interposition layer spends
// evaluating a chain: fixed protocol bookkeeping plus per-rule work.
func softFilterCost(m interface{ Cycles(int) sim.Duration }, res filter.Result) sim.Duration {
	return m.Cycles(15 * res.RulesEvaluated)
}

// pinger tracks in-flight kernel pings (icmp id -> completion).
type pinger struct {
	nextID  uint16
	pending map[uint16]pendingPing
}

type pendingPing struct {
	sent sim.Time
	done func(sim.Duration, bool)
}

// start registers a new ping and returns its id.
func (pg *pinger) start(now sim.Time, done func(sim.Duration, bool)) uint16 {
	if pg.pending == nil {
		pg.pending = map[uint16]pendingPing{}
	}
	pg.nextID++
	pg.pending[pg.nextID] = pendingPing{sent: now, done: done}
	return pg.nextID
}

// complete resolves a ping by id; duplicate replies are ignored.
func (pg *pinger) complete(id uint16, now sim.Time) {
	p, ok := pg.pending[id]
	if !ok {
		return
	}
	delete(pg.pending, id)
	if p.done != nil {
		p.done(now.Sub(p.sent), true)
	}
}

// expire times out a ping by id.
func (pg *pinger) expire(id uint16) {
	p, ok := pg.pending[id]
	if !ok {
		return
	}
	delete(pg.pending, id)
	if p.done != nil {
		p.done(0, false)
	}
}

// pingTimeout is how long the kernel waits for an echo reply.
const pingTimeout = 100 * sim.Millisecond

// connFor maps a kernel connection id to the architecture handle.
func (b *base) connFor(id uint64) (*Conn, bool) {
	c, ok := b.conns[id]
	return c, ok
}

// register records a new handle and pins its process's app core on it.
func (b *base) register(c *Conn) {
	c.core = b.w.Core(c.Info.PID)
	b.conns[c.Info.ID] = c
}

// unregister removes a handle.
func (b *base) unregister(c *Conn) { delete(b.conns, c.Info.ID) }
