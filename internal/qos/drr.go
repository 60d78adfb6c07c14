package qos

import (
	"maps"

	"norman/internal/packet"
	"norman/internal/sim"
)

// DRR implements deficit round robin: each active class is visited in turn
// and may send up to its accumulated deficit (incremented by its quantum per
// round). DRR approximates fair queueing with O(1) dequeue, which is why
// hardware schedulers favor it; the E6 bench compares its fairness against
// WFQ under identical load.
type DRR struct {
	classes        map[uint32]*drrClass
	quanta         map[uint32]float64 // what SetQuantum configured, as Spec reads it back
	active         []uint32           // round-robin order of classes with queued packets
	limit          int
	nitems         int
	defaultQuantum int
	stats          Stats
}

type drrClass struct {
	id      uint32
	quantum int
	deficit int
	q       []*packet.Packet
	queued  bool
}

// NewDRR creates a DRR qdisc bounded to limit total packets; classes default
// to the given quantum (bytes per round).
func NewDRR(limit, quantum int) *DRR {
	if limit <= 0 {
		limit = 4096
	}
	if quantum <= 0 {
		quantum = 1514
	}
	return &DRR{
		classes:        make(map[uint32]*drrClass),
		quanta:         make(map[uint32]float64),
		limit:          limit,
		defaultQuantum: quantum,
	}
}

// SetQuantum configures a class's per-round byte quantum (its weight).
func (q *DRR) SetQuantum(class uint32, quantum int) {
	if quantum < 1 {
		quantum = 1
	}
	q.class(class).quantum = quantum
	q.quanta[class] = float64(quantum)
}

func (q *DRR) class(id uint32) *drrClass {
	c, ok := q.classes[id]
	if !ok {
		c = &drrClass{id: id, quantum: q.defaultQuantum}
		q.classes[id] = c
	}
	return c
}

// Spec implements Qdisc: the configured quanta are the weights. A class
// Enqueue created on a miss runs at the default quantum and is not listed.
func (q *DRR) Spec() Spec { return Spec{Kind: "drr", Limit: q.limit, Weights: maps.Clone(q.quanta)} }

// Enqueue implements Qdisc. As with WFQ, each class is bounded to its share
// of the buffer so a slow class cannot monopolize it under overload.
func (q *DRR) Enqueue(p *packet.Packet, _ sim.Time) bool {
	c := q.class(p.Meta.Class)
	perClass := q.limit / len(q.classes)
	if perClass < 1 {
		perClass = 1
	}
	if q.nitems >= q.limit || len(c.q) >= perClass {
		q.stats.DropPackets++
		return false
	}
	c.q = append(c.q, p)
	if !c.queued {
		c.queued = true
		q.active = append(q.active, c.id)
	}
	q.nitems++
	q.stats.EnqPackets++
	q.stats.EnqBytes += uint64(p.FrameLen())
	return true
}

// Dequeue implements Qdisc.
func (q *DRR) Dequeue(_ sim.Time) (*packet.Packet, bool) {
	if q.nitems == 0 {
		return nil, false
	}
	for {
		c := q.classes[q.active[0]]
		if len(c.q) == 0 {
			// Class drained since being queued; drop from the round.
			c.queued = false
			c.deficit = 0
			q.active = q.active[1:]
			continue
		}
		head := c.q[0]
		need := head.FrameLen()
		if c.deficit < need {
			// Give the class its quantum and rotate to the back.
			c.deficit += c.quantum
			q.active = append(q.active[1:], c.id)
			continue
		}
		c.deficit -= need
		c.q[0] = nil
		c.q = c.q[1:]
		q.nitems--
		if len(c.q) == 0 {
			c.queued = false
			c.deficit = 0
			q.active = q.active[1:]
		}
		q.stats.DeqPackets++
		q.stats.DeqBytes += uint64(need)
		return head, true
	}
}

// ReadyAt implements Qdisc: DRR is work-conserving.
func (q *DRR) ReadyAt(now sim.Time) (sim.Time, bool) {
	if q.nitems == 0 {
		return 0, false
	}
	return now, true
}

// Len implements Qdisc.
func (q *DRR) Len() int { return q.nitems }

// Stats returns aggregate counters.
func (q *DRR) Stats() Stats { return q.stats }
