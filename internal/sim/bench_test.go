package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineEventThroughput measures raw event dispatch rate — the
// budget everything else in the simulation spends from.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, fire)
		}
	}
	b.ResetTimer()
	e.At(0, fire)
	e.Run()
}

// BenchmarkTimerReset measures pushing a timeout back: one Timer re-armed
// 1 µs further out per op over a background heap of 1000 pending events. The
// cover is already queued ahead of every new deadline, so an op is a handful
// of field stores: no push, no sift, 0 allocs/op.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.At(Time(i)*Time(Millisecond), func() {})
	}
	tm := newTimer(e, func() {})
	at := Time(Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(Microsecond)
		tm.Reset(at)
	}
	b.StopTimer()
	if e.Pending() != 1001 {
		b.Fatalf("%d events pending after %d resets, want 1001", e.Pending(), b.N)
	}
}

// churnHorizons are the delays a datapath event schedules its successor at
// (timing.Default's LLC hit, poll iteration, cacheline transfer, MMIO write,
// DMA latency, NIC pipeline, wire latency), the 5–10 µs a transmit chain
// schedules a frame's wire arrival and its peer's ACK at, plus a far
// retransmission timeout.
var churnHorizons = [...]Duration{
	15 * Nanosecond, 20 * Nanosecond, 60 * Nanosecond, 100 * Nanosecond,
	450 * Nanosecond, 500 * Nanosecond, 2 * Microsecond, 5 * Microsecond,
	10 * Microsecond, 10 * Millisecond,
}

// churn is the steady-depth load: every fired event schedules one successor,
// so the heap holds the depth it was primed with for the whole run.
type churn struct {
	e        *Engine
	horizons [1 << 16]Duration // drawn up front: the RNG stays out of the timed loop
	next     int
}

func (c *churn) Fire() {
	c.next++
	c.e.AtHandler(c.e.Now().Add(c.horizons[c.next%len(c.horizons)]), c)
}

// BenchmarkEngineHeapChurn measures one pop plus one push at a steady depth —
// 10 is what the rx workloads hold, 300 what tx_stream_churn holds, 1000 a
// deeper queue — with horizons mixed the way a datapath mixes them, so which
// event fires first is not predictable the way BenchmarkEngineEventThroughput's
// one-event queue is.
func BenchmarkEngineHeapChurn(b *testing.B) {
	for _, depth := range []int{10, 300, 1000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			c := &churn{e: NewEngine()}
			g := NewRNG(1, "bench")
			for i := range c.horizons {
				c.horizons[i] = churnHorizons[g.Intn(len(churnHorizons))]
			}
			for i := 0; i < depth; i++ {
				c.Fire()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.e.Step()
			}
		})
	}
}

// BenchmarkServerAcquire measures the FIFO-resource hot path.
func BenchmarkServerAcquire(b *testing.B) {
	s := NewServer("bench")
	for i := 0; i < b.N; i++ {
		s.Acquire(Time(i), 10*Nanosecond)
	}
}
