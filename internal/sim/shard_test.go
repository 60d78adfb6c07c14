package sim

import (
	"testing"
)

// TestShardedBasics drives two engines through their own events and checks
// every event fires on its engine's clock and Run returns the latest clock.
func TestShardedBasics(t *testing.T) {
	s := NewSharded(2, 4, Microsecond)
	fired := make([][]Time, 2)
	for i := 0; i < 4; i++ {
		sh := i % 2
		e := s.Engine(sh)
		e.At(Time(i)*Time(700*Nanosecond), func() { fired[sh] = append(fired[sh], e.Now()) })
	}
	// The last event is due inside the epoch [2µs, 3µs), so the barrier
	// leaves both clocks at that epoch's last instant.
	if end := s.Run(); end != Time(3*Microsecond)-1 {
		t.Fatalf("Run returned %v, want the end of the epoch holding the last event", end)
	}
	want := [][]Time{{0, Time(1400 * Nanosecond)}, {Time(700 * Nanosecond), Time(2100 * Nanosecond)}}
	for sh := range want {
		if len(fired[sh]) != 2 || fired[sh][0] != want[sh][0] || fired[sh][1] != want[sh][1] {
			t.Fatalf("shard %d fired at %v, want %v", sh, fired[sh], want[sh])
		}
	}
}

// TestShardedRunDrains checks Run executes chained work on every engine to
// completion, across many epochs, and reports the final clock like
// Engine.Run does.
func TestShardedRunDrains(t *testing.T) {
	s := NewSharded(4, 8, Microsecond)
	hops := make([]int, 4)
	for sh := 0; sh < 4; sh++ {
		sh := sh
		e := s.Engine(sh)
		var hop func()
		hop = func() {
			if hops[sh]++; hops[sh] < 10 {
				e.After(Duration(sh+1)*2*Microsecond, hop)
			}
		}
		e.At(0, hop)
	}
	end := s.Run()
	for sh, n := range hops {
		if n != 10 {
			t.Fatalf("shard %d ran %d hops, want 10", sh, n)
		}
	}
	// Shard 3's nine hops of 8µs end last.
	if end != Time(72*Microsecond) {
		t.Fatalf("Run returned %v", end)
	}
}

// TestShardedFiredTotalFlushedAtBarriers: an event observing the global
// counter mid-run (several epochs after another engine's burst, batched
// sub-events included) must see that work already published, because every
// barrier exit flushes each engine.
func TestShardedFiredTotalFlushedAtBarriers(t *testing.T) {
	s := NewSharded(2, 2, Microsecond)
	base := FiredTotal()
	e0 := s.Engine(0)
	for i := 0; i < 5; i++ {
		e0.At(Time(i)*Time(100*Nanosecond), func() {
			e0.AddFired(9) // one dispatch draining a 10-unit burst
		})
	}
	var seen uint64
	s.Engine(1).At(Time(4*Microsecond), func() { seen = FiredTotal() - base })
	s.Run()
	if seen < 50 {
		t.Fatalf("mid-run FiredTotal delta = %d, want >= 50 (5 dispatches x 10 units flushed at barriers)", seen)
	}
	if got, want := FiredTotal()-base, s.Engine(0).Fired()+s.Engine(1).Fired(); got != want {
		t.Fatalf("final FiredTotal delta %d != the engines' Fired %d", got, want)
	}
}

// TestEngineStopFlushesFiredTotal covers the other flush point: an engine
// stepped manually and then stopped publishes its delta without any
// Run/RunUntil return.
func TestEngineStopFlushesFiredTotal(t *testing.T) {
	base := FiredTotal()
	e := NewEngine()
	e.At(0, func() { e.AddFired(4) })
	e.Step()
	e.Stop()
	if got := FiredTotal() - base; got != 5 {
		t.Fatalf("FiredTotal delta after Stop = %d, want 5", got)
	}
}

// TestShardedDeadAirFastForward checks sparse work does not pay one barrier
// per epoch of empty virtual time: a run over 1000 s of dead air at a 1 µs
// epoch is 10^9 barriers without the fast-forward.
func TestShardedDeadAirFastForward(t *testing.T) {
	s := NewSharded(2, 2, Microsecond)
	fired := false
	s.Engine(0).At(0, func() {})
	s.Engine(1).At(Time(1000*Second), func() { fired = true })
	if end := s.Run(); !fired || end != Time(1000*Second) {
		t.Fatalf("distant event fired=%v, run ended at %v", fired, end)
	}
}
