package sim

import "testing"

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
	tm := e.NewTimer(func() {})
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

// BenchmarkEngineHeapChurn stresses out-of-order scheduling.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine()
	g := NewRNG(1, "bench")
	for i := 0; i < b.N; i++ {
		e.At(e.Now().Add(Duration(g.Intn(1000))*Nanosecond), func() {})
		if i%64 == 63 {
			for j := 0; j < 32; j++ {
				e.Step()
			}
		}
	}
	e.Run()
}

// BenchmarkServerAcquire measures the FIFO-resource hot path.
func BenchmarkServerAcquire(b *testing.B) {
	s := NewServer("bench")
	for i := 0; i < b.N; i++ {
		s.Acquire(Time(i), 10*Nanosecond)
	}
}
