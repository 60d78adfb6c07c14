package qos

import (
	"math"
	"math/bits"

	"norman/internal/sim"
)

// Bucket is a token bucket kept in integer virtual time: the GCRA (generic
// cell rate algorithm) form. It stores one instant, the one at which it was
// (or will be) drained; at now it holds min(depth, now − empty) worth of
// credit, a byte costing 1/rate seconds. That cost is rarely a whole number
// of picoseconds, so the instant carries the remainder exactly, as a
// fraction of a picosecond over rate: there are no floats, and a bucket
// that sends for an hour drifts by nothing.
//
// Every rate limiter in the tree is one: the TBF qdisc, which refuses at
// enqueue a frame that can never fit (as Linux's sch_tbf does); the NIC's
// per-connection pacer, under whose debt rule a frame larger than the
// bucket leaves from a full one and leaves the bucket owing the rest; and
// the overlay's meter instruction, a policer (Conform).
type Bucket struct {
	rate  uint64 // bytes per second
	depth int    // bytes
	empty instant
}

// instant is a point in virtual time to a fraction of a picosecond:
// ps + frac/rate, with 0 <= frac < rate.
type instant struct {
	ps   sim.Time
	frac uint64
}

// maxFill bounds how long an empty bucket takes to fill, in seconds, so
// that its drain instant always fits in sim.Time.
const maxFill = 1 << 22

// NewBucket returns a full bucket of depth bytes refilling at rate bytes per
// second, rounded to a whole byte and at least one.
func NewBucket(rate, depth float64) *Bucket {
	r := math.Min(math.Max(1, math.Round(rate)), 1e15)
	d := math.Min(math.Max(0, depth), math.Min(r*maxFill, 1<<40))
	return &Bucket{rate: uint64(r), depth: int(d), empty: instant{ps: math.MinInt64 / 2}}
}

// Fits reports whether n bytes can ever be covered by the bucket.
func (b *Bucket) Fits(n int) bool { return n <= b.depth }

// ReadyAt returns the first instant, no earlier than now, at which the
// bucket covers n bytes, or is full when n is more than its depth.
func (b *Bucket) ReadyAt(n int, now sim.Time) sim.Time {
	if n > b.depth {
		n = b.depth
	}
	at := b.after(b.start(now), n)
	if at.frac > 0 {
		at.ps++ // round up: from that picosecond on the credit is there
	}
	if at.ps < now {
		return now
	}
	return at.ps
}

// Conform is a policer's test: whether n bytes are covered at now, spending
// them if so. A frame larger than the depth never conforms.
func (b *Bucket) Conform(n int, now sim.Time) bool {
	if !b.Fits(n) || b.ReadyAt(n, now) > now {
		return false
	}
	b.Take(n, now)
	return true
}

// Take spends n bytes of credit at now. More than the bucket holds leaves it
// in debt: the next frame waits for the debt to be paid back first.
func (b *Bucket) Take(n int, now sim.Time) {
	b.empty = b.after(b.start(now), n)
}

// start is where the bucket's credit runs from at now: its drain instant, or
// depth's worth before now when it has filled since.
func (b *Bucket) start(now sim.Time) instant {
	ps, frac := b.span(b.depth)
	full := instant{now - sim.Time(ps), 0}
	if frac > 0 {
		full = instant{full.ps - 1, b.rate - frac}
	}
	if b.empty.ps > full.ps || (b.empty.ps == full.ps && b.empty.frac > full.frac) {
		return b.empty
	}
	return full
}

// after returns the instant n bytes' worth of time after from.
func (b *Bucket) after(from instant, n int) instant {
	ps, frac := b.span(n)
	at := instant{from.ps + sim.Time(ps), from.frac + frac}
	if at.frac >= b.rate {
		at.ps, at.frac = at.ps+1, at.frac-b.rate
	}
	return at
}

// span is how long n bytes take at the bucket's rate: whole picoseconds and
// the remainder in 1/rate of one.
func (b *Bucket) span(n int) (ps, frac uint64) {
	hi, lo := bits.Mul64(uint64(n), uint64(sim.Second))
	return bits.Div64(hi, lo, b.rate)
}
