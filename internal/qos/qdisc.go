// Package qos is the reproduction's net/sched equivalent: queueing
// disciplines installed by the control plane at whichever interposition
// point an architecture provides. The paper's QoS scenario (§2) needs a
// work-conserving, weight-proportional scheduler (WFQ) with classification
// by user/process — possible only where the interposition layer has both a
// global view of competing traffic and a process view for classification.
//
// Classful qdiscs select a class from packet.Meta.Class, which the filter
// layer / overlay / kernel stamps during classification.
package qos

import (
	"norman/internal/packet"
	"norman/internal/sim"
)

// Qdisc is a queueing discipline. Enqueue may drop (returns false); Dequeue
// returns the next packet eligible at `now`. ReadyAt lets rate-limiting
// qdiscs defer service into the future: it returns the earliest time, no
// earlier than now, a packet could be dequeued, and false when the qdisc
// holds nothing.
//
// The contract the pumps rely on: a Dequeue at the instant ReadyAt returned
// succeeds, and so does one at any later instant with no Dequeue between.
// A pump sleeps until that instant and never polls, so a qdisc that declines
// there strands its backlog, which the datapath's idle laws then report.
//
// Spec reads the configuration back as the record Build makes it from.
type Qdisc interface {
	Spec() Spec
	Enqueue(p *packet.Packet, now sim.Time) bool
	Dequeue(now sim.Time) (*packet.Packet, bool)
	ReadyAt(now sim.Time) (sim.Time, bool)
	Len() int
}

// Stats common to the implementations here.
type Stats struct {
	EnqPackets  uint64
	EnqBytes    uint64
	DeqPackets  uint64
	DeqBytes    uint64
	DropPackets uint64
}

// fifo is the shared bounded-FIFO core.
type fifo struct {
	q     []*packet.Packet
	limit int
	stats Stats
}

// newFifo bounds a FIFO to limit packets (1000 when limit is not positive).
func newFifo(limit int) fifo {
	if limit <= 0 {
		limit = 1000
	}
	return fifo{limit: limit}
}

func (f *fifo) push(p *packet.Packet) bool {
	if len(f.q) >= f.limit {
		f.stats.DropPackets++
		return false
	}
	f.q = append(f.q, p)
	f.stats.EnqPackets++
	f.stats.EnqBytes += uint64(p.FrameLen())
	return true
}

func (f *fifo) pop() (*packet.Packet, bool) {
	if len(f.q) == 0 {
		return nil, false
	}
	p := f.q[0]
	f.q[0] = nil
	f.q = f.q[1:]
	f.stats.DeqPackets++
	f.stats.DeqBytes += uint64(p.FrameLen())
	return p, true
}

// Stats returns cumulative counters.
func (f *fifo) Stats() Stats { return f.stats }

// PFIFO is a bounded first-in-first-out qdisc (the kernel default).
type PFIFO struct {
	fifo
}

// NewPFIFO creates a FIFO bounded to limit packets.
func NewPFIFO(limit int) *PFIFO { return &PFIFO{newFifo(limit)} }

// Spec implements Qdisc.
func (q *PFIFO) Spec() Spec { return Spec{Kind: "pfifo", Limit: q.limit} }

// Enqueue implements Qdisc.
func (q *PFIFO) Enqueue(p *packet.Packet, _ sim.Time) bool { return q.push(p) }

// Dequeue implements Qdisc.
func (q *PFIFO) Dequeue(_ sim.Time) (*packet.Packet, bool) { return q.pop() }

// ReadyAt implements Qdisc: a FIFO is ready immediately when non-empty.
func (q *PFIFO) ReadyAt(now sim.Time) (sim.Time, bool) {
	if len(q.q) == 0 {
		return 0, false
	}
	return now, true
}

// Len implements Qdisc.
func (q *PFIFO) Len() int { return len(q.q) }

// Prio is a strict-priority qdisc with N bands; band 0 is served first.
// Class c maps to band min(c, bands-1). Bands are themselves qdiscs, so
// compositions like "band 1 is token-bucket shaped" (the paper's game
// deprioritization) are expressible.
type Prio struct {
	bands []Qdisc
}

// NewPrio creates a strict-priority qdisc with the given band count and
// per-band packet limit, with FIFO bands.
func NewPrio(bands, limit int) *Prio {
	if bands <= 0 {
		bands = 3
	}
	q := &Prio{}
	for i := 0; i < bands; i++ {
		q.bands = append(q.bands, NewPFIFO(limit))
	}
	return q
}

// NewPrioWith creates a strict-priority qdisc over the given band qdiscs.
func NewPrioWith(bands ...Qdisc) *Prio {
	if len(bands) == 0 {
		panic("qos: NewPrioWith wants at least one band")
	}
	return &Prio{bands: bands}
}

// Spec implements Qdisc: the kind and the first band's limit, the shape
// Build makes (three FIFO bands of one limit).
func (q *Prio) Spec() Spec { return Spec{Kind: "prio", Limit: q.bands[0].Spec().Limit} }

// Enqueue places the packet in the band selected by Meta.Class.
func (q *Prio) Enqueue(p *packet.Packet, now sim.Time) bool {
	b := int(p.Meta.Class)
	if b >= len(q.bands) {
		b = len(q.bands) - 1
	}
	return q.bands[b].Enqueue(p, now)
}

// Dequeue serves the lowest-numbered band that is ready now.
func (q *Prio) Dequeue(now sim.Time) (*packet.Packet, bool) {
	for _, b := range q.bands {
		if p, ok := b.Dequeue(now); ok {
			return p, true
		}
	}
	return nil, false
}

// ReadyAt returns the earliest instant any band could serve: a shaped band
// defers, a work-conserving band is ready immediately.
func (q *Prio) ReadyAt(now sim.Time) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, b := range q.bands {
		at, ok := b.ReadyAt(now)
		if !ok {
			continue
		}
		if !found || at < best {
			best = at
			found = true
		}
	}
	return best, found
}

// Len implements Qdisc.
func (q *Prio) Len() int {
	n := 0
	for _, b := range q.bands {
		n += b.Len()
	}
	return n
}
