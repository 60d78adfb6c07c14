package qos

import (
	"maps"

	"norman/internal/packet"
	"norman/internal/sim"
)

// WFQ implements weighted fair queueing (Demers, Keshav, Shenker '89 — the
// paper's reference [10] for work-conserving shaping). Each class holds a
// FIFO of packets tagged with virtual finish times; dequeue serves the
// smallest finish tag, so long-run service is proportional to class weight
// while remaining work-conserving: idle classes donate bandwidth.
type WFQ struct {
	classes       map[uint32]*wfqClass
	weights       map[uint32]float64 // what SetWeight configured, as Spec reads it back
	defaultWeight float64
	limit         int
	vtime         float64 // global virtual time
	heapq         wfqHeap
	nitems        int
	seq           uint64
	stats         Stats
}

type wfqClass struct {
	weight float64
	finish float64 // finish tag of the last enqueued packet
	queued int     // current backlog, for per-class buffer fairness
}

// wfqItem is 32 bytes. The frame length is not carried: it would take the
// item to 40, and the heap's backing array with it.
type wfqItem struct {
	p      *packet.Packet
	class  *wfqClass
	finish float64
	seq    uint64 // FIFO tie-break
}

// wfqHeap is a binary min-heap on (finish, seq), sifted in place on the typed
// slice: container/heap would box every item into an interface on the way in
// and again on the way out, two allocations per frame. The order is total, so
// the service order does not depend on the heap's shape.
type wfqHeap []wfqItem

func (a *wfqItem) less(b *wfqItem) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.seq < b.seq
}

func (h *wfqHeap) push(it wfqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
}

func (h *wfqHeap) pop() wfqItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	it := s[n]
	s[n].p, s[n].class = nil, nil
	s = s[:n]
	*h = s
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s[r].less(&s[m]) {
			m = r
		}
		if !s[m].less(&it) {
			break
		}
		s[i] = s[m]
		i = m
	}
	if n > 0 {
		s[i] = it
	}
	return top
}

// NewWFQ creates a WFQ qdisc bounded to limit total packets. Classes not
// configured with SetWeight get weight 1.
func NewWFQ(limit int) *WFQ {
	if limit <= 0 {
		limit = 4096
	}
	return &WFQ{
		classes:       make(map[uint32]*wfqClass),
		weights:       make(map[uint32]float64),
		defaultWeight: 1,
		limit:         limit,
	}
}

// SetWeight configures a class's weight. Weights are relative; non-positive
// weights are clamped to a tiny positive value so the class still drains.
func (q *WFQ) SetWeight(class uint32, weight float64) {
	if weight <= 0 {
		weight = 1e-6
	}
	c := q.class(class)
	c.weight = weight
	q.weights[class] = weight
}

func (q *WFQ) class(id uint32) *wfqClass {
	c, ok := q.classes[id]
	if !ok {
		c = &wfqClass{weight: q.defaultWeight}
		q.classes[id] = c
	}
	return c
}

// Spec implements Qdisc: the weights SetWeight configured. A class Enqueue
// created on a miss runs at the default weight and is not listed.
func (q *WFQ) Spec() Spec { return Spec{Kind: "wfq", Limit: q.limit, Weights: maps.Clone(q.weights)} }

// Enqueue tags the packet with a virtual finish time and inserts it. The
// buffer is shared, but no class may occupy more than its per-class share —
// without that bound a slow class monopolizes the buffer under overload and
// tail drops erase the weight differentiation (real qdiscs drop from the
// longest queue for the same reason).
func (q *WFQ) Enqueue(p *packet.Packet, _ sim.Time) bool {
	c := q.class(p.Meta.Class)
	perClass := q.limit / len(q.classes)
	if perClass < 1 {
		perClass = 1
	}
	if q.nitems >= q.limit || c.queued >= perClass {
		q.stats.DropPackets++
		return false
	}
	start := q.vtime
	if c.finish > start {
		start = c.finish
	}
	frame := p.FrameLen()
	c.finish = start + float64(frame)/c.weight
	q.seq++
	q.heapq.push(wfqItem{p: p, class: c, finish: c.finish, seq: q.seq})
	q.nitems++
	c.queued++
	q.stats.EnqPackets++
	q.stats.EnqBytes += uint64(frame)
	return true
}

// Dequeue serves the packet with the smallest finish tag and advances
// virtual time to it.
func (q *WFQ) Dequeue(_ sim.Time) (*packet.Packet, bool) {
	if q.nitems == 0 {
		return nil, false
	}
	it := q.heapq.pop()
	q.nitems--
	it.class.queued--
	if it.finish > q.vtime {
		q.vtime = it.finish
	}
	q.stats.DeqPackets++
	q.stats.DeqBytes += uint64(it.p.FrameLen())
	return it.p, true
}

// ReadyAt implements Qdisc: WFQ is work-conserving.
func (q *WFQ) ReadyAt(now sim.Time) (sim.Time, bool) {
	if q.nitems == 0 {
		return 0, false
	}
	return now, true
}

// Len implements Qdisc.
func (q *WFQ) Len() int { return q.nitems }

// Stats returns aggregate counters.
func (q *WFQ) Stats() Stats { return q.stats }
