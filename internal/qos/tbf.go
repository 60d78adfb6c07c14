package qos

import (
	"norman/internal/packet"
	"norman/internal/sim"
)

// TBF is a token-bucket filter: a bounded FIFO shaped to Rate bytes/second
// with Burst bytes of depth (the `tc qdisc add ... tbf` of the paper's game
// traffic-shaping scenario).
type TBF struct {
	fifo
	bucket *Bucket
}

// NewTBF creates a FIFO bounded to limit packets behind a token bucket of
// the given rate (bytes/second) and burst (bytes).
func NewTBF(limit int, rate, burst float64) *TBF {
	return &TBF{fifo: newFifo(limit), bucket: NewBucket(rate, burst)}
}

// Spec implements Qdisc: the rate and burst as the bucket holds them.
func (q *TBF) Spec() Spec {
	return Spec{Kind: "tbf", Limit: q.limit, RateBps: float64(q.bucket.rate), BurstBytes: float64(q.bucket.depth)}
}

// Enqueue implements Qdisc. As in Linux's sch_tbf, a frame larger than the
// burst is refused: no amount of waiting would let it leave.
func (q *TBF) Enqueue(p *packet.Packet, _ sim.Time) bool {
	if !q.bucket.Fits(p.FrameLen()) {
		q.stats.DropPackets++
		return false
	}
	return q.push(p)
}

// Dequeue returns the head packet once the bucket covers it.
func (q *TBF) Dequeue(now sim.Time) (*packet.Packet, bool) {
	if len(q.q) == 0 || !q.bucket.Conform(q.q[0].FrameLen(), now) {
		return nil, false
	}
	return q.pop()
}

// ReadyAt returns the exact instant the bucket covers the head packet.
func (q *TBF) ReadyAt(now sim.Time) (sim.Time, bool) {
	if len(q.q) == 0 {
		return 0, false
	}
	return q.bucket.ReadyAt(q.q[0].FrameLen(), now), true
}

// Len implements Qdisc.
func (q *TBF) Len() int { return len(q.q) }
