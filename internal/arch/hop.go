package arch

import (
	"norman/internal/packet"
	"norman/internal/sim"
)

// hopStage names the host-side step a hop is waiting for.
type hopStage uint8

const (
	hopRun    hopStage = iota // the app core picks the packet up → occupy it for cost
	hopUpcall                 // processing done → upcall
	hopSend                   // direct.Send's staging cost paid → descriptor + doorbell
	hopDrain                  // KOPI's blocked owner is awake → drain its RX ring
	hopWire                   // wire propagation done → World.Peer, then the frame's journey ends
)

// hop is the host side's per-packet event record, the counterpart of the
// NIC's datapath job: the fields a delivery or send continuation needs, free-
// listed on the World and scheduled as a sim.Handler, where these paths used
// to build one or two closures per packet. A hop is held by exactly one
// engine event; Fire either re-arms it for the next stage or frees it before
// calling out, so a callback that re-enters the datapath reuses it at once.
type hop struct {
	w     *World
	b     *base // nil for hopWire
	c     *Conn
	p     *packet.Packet
	core  *sim.Server  // hopRun: the app core
	cost  sim.Duration // hopRun: its occupancy
	stage hopStage
	next  *hop
}

// hop schedules a record at st for (c, p) at time at.
func (w *World) hop(at sim.Time, st hopStage, b *base, c *Conn, p *packet.Packet) *hop {
	h := w.hopFree
	if h == nil {
		h = &hop{w: w}
	} else {
		w.hopFree = h.next
	}
	h.b, h.c, h.p, h.stage = b, c, p, st
	w.Eng.AtHandler(at, h)
	return h
}

// Fire implements sim.Handler.
func (h *hop) Fire() {
	w, b, c, p := h.w, h.b, h.c, h.p
	now := w.Eng.Now()
	if h.stage == hopRun {
		_, done := h.core.Acquire(now, h.cost)
		h.stage = hopUpcall
		w.Eng.AtHandler(done, h)
		return
	}
	st := h.stage
	h.b, h.c, h.p, h.core = nil, nil, nil, nil
	h.next, w.hopFree = w.hopFree, h
	switch st {
	case hopUpcall:
		b.upcall(c, p, now)
	case hopSend:
		b.postTx(c, p, now)
	case hopDrain:
		b.drainBlocked(c)
	case hopWire:
		w.Peer(p, now)
		w.Frames.Recycle(p)
	}
}
