package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// rearmer is what the differential schedules drive: a Timer on one engine,
// the reference implementation on another.
type rearmer interface {
	Reset(at Time)
	Stop()
	Armed() bool
}

// genTimer is the reference: the push-per-arm timeout Timer replaced. Every
// Reset pushes a fresh closure tagged with a generation, a stale generation
// fires as a no-op, and cancelled events stay in the heap until their time.
type genTimer struct {
	e     *Engine
	fn    func()
	gen   uint64
	armed bool
}

func (g *genTimer) Reset(at Time) {
	g.gen++
	gen := g.gen
	g.armed = true
	g.e.At(at, func() {
		if gen != g.gen {
			return
		}
		g.armed = false
		g.fn()
	})
}

func (g *genTimer) Stop()       { g.gen++; g.armed = false }
func (g *genTimer) Armed() bool { return g.armed }

// What one step of a schedule does to a timer (or beside it).
const (
	actNone    = iota
	actFresh   // Reset(now + d)
	actLater   // Reset(last deadline + d)
	actEarlier // Reset(last deadline - d), floored at now
	actEqual   // Reset(last deadline) again, floored at now
	actStop
	actPlain // schedule an ordinary At event at now + d
	nActs
)

type action struct {
	kind, timer int
	d           Duration
}

// A schedule is a fixed script: driver events at absolute times, and for each
// timer what its callback does on its k-th expiry (cycled).
type schedule struct {
	timers  int
	drivers []struct {
		at Time
		action
	}
	react [][]action
	mid   Time // RunUntil here first, then Run
}

const quantum = 10 * Nanosecond // coarse instants, so deadlines and events collide

func randomSchedule(seed int64) schedule {
	g := NewRNG(seed, "timer-schedule")
	act := func() action {
		return action{kind: g.Intn(nActs), timer: g.Intn(3), d: Duration(g.Intn(12)) * quantum}
	}
	sc := schedule{timers: 3, mid: Time(g.Intn(60)) * Time(quantum)}
	sc.drivers = make([]struct {
		at Time
		action
	}, 20+g.Intn(40))
	for i := range sc.drivers {
		sc.drivers[i].at = Time(g.Intn(60)) * Time(quantum)
		sc.drivers[i].action = act()
	}
	sc.react = make([][]action, sc.timers)
	for i := range sc.react {
		sc.react[i] = make([]action, 1+g.Intn(4))
		for k := range sc.react[i] {
			sc.react[i][k] = act()
			// A callback that always re-arms would never drain: every
			// cycle ends in a step that does not.
			if k == len(sc.react[i])-1 && sc.react[i][k].kind != actStop {
				sc.react[i][k].kind = actNone
			}
		}
	}
	return sc
}

type traceEntry struct {
	Now   Time
	Label string
}

// play runs sc on e with timers built by mk and returns every callback as
// (now, label), the trace length when RunUntil(sc.mid) returned (-1 with a
// nil runUntil, which skips the stop), and the clock Run drained at.
func play(sc schedule, e *Engine, run func() Time, runUntil func(Time) Time, mk func(fn func()) rearmer) (trace []traceEntry, atMid int, end Time) {
	timers := make([]rearmer, sc.timers)
	last := make([]Time, sc.timers) // each timer's latest deadline
	fires := make([]int, sc.timers)
	record := func(format string, args ...any) {
		trace = append(trace, traceEntry{e.Now(), fmt.Sprintf(format, args...)})
	}
	plain := 0
	do := func(a action) {
		t, now := timers[a.timer], e.Now()
		at := now
		switch a.kind {
		case actNone:
			return
		case actStop:
			t.Stop()
			return
		case actPlain:
			plain++
			id := plain
			e.At(now.Add(a.d), func() { record("plain %d", id) })
			return
		case actFresh:
			at = now.Add(a.d)
		case actLater:
			at = last[a.timer].Add(a.d)
		case actEarlier:
			at = last[a.timer].Add(-a.d)
		case actEqual:
			at = last[a.timer]
		}
		if at < now {
			at = now
		}
		last[a.timer] = at
		t.Reset(at)
	}
	for i := range timers {
		i := i
		timers[i] = mk(func() {
			record("timer %d expired, armed=%v", i, timers[i].Armed())
			a := sc.react[i][fires[i]%len(sc.react[i])]
			fires[i]++
			do(a)
		})
	}
	for k, d := range sc.drivers {
		k, d := k, d
		e.At(d.at, func() {
			record("driver %d, timer %d armed=%v", k, d.timer, timers[d.timer].Armed())
			do(d.action)
		})
	}
	atMid = -1
	if runUntil != nil {
		runUntil(sc.mid)
		atMid = len(trace)
	}
	end = run()
	return trace, atMid, end
}

func playTimer(sc schedule, e *Engine) ([]traceEntry, int, Time) {
	return play(sc, e, e.Run, e.RunUntil, func(fn func()) rearmer { return e.NewTimer(fn) })
}

func playReference(sc schedule, e *Engine) ([]traceEntry, int, Time) {
	return play(sc, e, e.Run, e.RunUntil, func(fn func()) rearmer { return &genTimer{e: e, fn: fn} })
}

// TestTimerDifferential is the order-identity property: over random
// interleavings of Reset (earlier, later, equal deadlines), Stop, re-arming
// and stopping from inside the callback, and ordinary events at colliding
// instants, a Timer produces the same (now, label) trace of callbacks as the
// push-per-arm reference, the same state at an intermediate RunUntil, and
// drains the engine at the same clock.
func TestTimerDifferential(t *testing.T) {
	expiries := 0
	for seed := int64(0); seed < 1500; seed++ {
		sc := randomSchedule(seed)
		want, wantMid, wantEnd := playReference(sc, NewEngine())
		e := NewEngine()
		got, gotMid, gotEnd := playTimer(sc, e)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: traces diverge at entry %d of %d/%d:\n timer     %v\n reference %v",
						seed, i, len(got), len(want), got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("seed %d: timer trace has %d entries, reference %d", seed, len(got), len(want))
		}
		if gotMid != wantMid || gotEnd != wantEnd {
			t.Fatalf("seed %d: %d callbacks by RunUntil(%v) and drained at %v; reference %d and %v",
				seed, gotMid, sc.mid, gotEnd, wantMid, wantEnd)
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after Run", seed, e.Pending())
		}
		expiries += len(want) - len(sc.drivers)
	}
	if expiries < 1500 {
		t.Fatalf("only %d timer expiries and plain events over all schedules: the generator went quiet", expiries)
	}
}

// TestTimerOnShardEngine: a shard's engine is an ordinary Engine, so a Timer
// on it behaves as on a standalone one with the barrier coordinator driving
// the run: the standalone reference's trace, and the drained clock of the
// reference run under the same coordinator (barriers round a shard's clock up
// to an epoch boundary, so that is the comparable clock).
func TestTimerOnShardEngine(t *testing.T) {
	onShard := func(sc schedule, timer bool) ([]traceEntry, Time) {
		s := NewSharded(2, 2, Microsecond)
		for i := 0; i < 20; i++ { // the other shard runs ordinary work alongside
			s.Engine(0).At(Time(i)*Time(50*Nanosecond), func() {})
		}
		e := s.Engine(1)
		trace, _, end := play(sc, e, s.Run, nil, func(fn func()) rearmer {
			if timer {
				return e.NewTimer(fn)
			}
			return &genTimer{e: e, fn: fn}
		})
		return trace, end
	}
	for seed := int64(0); seed < 50; seed++ {
		sc := randomSchedule(seed)
		want, _, _ := playReference(sc, NewEngine())
		_, wantEnd := onShard(sc, false)
		got, gotEnd := onShard(sc, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: trace on a shard engine differs from the reference (%d/%d entries)",
				seed, len(got), len(want))
		}
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: sharded run drained at %v, with the reference timer at %v", seed, gotEnd, wantEnd)
		}
	}
}

// TestTimerCallbackRearmAndStop covers the two in-callback cases directly.
func TestTimerCallbackRearmAndStop(t *testing.T) {
	const step = 100 * Nanosecond
	e := NewEngine()
	var fired []Time
	var tm *Timer
	tm = e.NewTimer(func() {
		fired = append(fired, e.Now())
		if tm.Armed() {
			t.Error("timer still armed inside its own callback")
		}
		switch len(fired) {
		case 1, 2:
			tm.Reset(e.Now().Add(step)) // re-arm from inside
		case 3:
			tm.Reset(e.Now().Add(step / 2))
			tm.Stop() // and stop from inside: the re-arm must not fire
		}
	})
	tm.Reset(Time(step))
	end := e.Run()
	if !reflect.DeepEqual(fired, []Time{Time(step), Time(2 * step), Time(3 * step)}) {
		t.Fatalf("fired at %v, want every %v up to %v", fired, step, 3*step)
	}
	if tm.Armed() {
		t.Fatal("stopped timer reports armed")
	}
	// The stopped re-arm is the horizon: the clock still walks to it.
	if want := Time(3*step + step/2); end != want {
		t.Fatalf("drained at %v, want %v", end, want)
	}
	// A stopped timer is reusable.
	tm.Reset(e.Now().Add(step))
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("re-armed after Stop: fired %d times, want 4", len(fired))
	}
}

func TestTimerResetInPastPanics(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("arming a timer in the past should panic like AtHandler")
			}
		}()
		tm.Reset(50)
	})
	e.Run()
}

// TestTimerZeroAlloc pins the point of the primitive: pushing a deadline
// back costs no allocation, and neither does a full fire-and-re-arm cycle.
func TestTimerZeroAlloc(t *testing.T) {
	e := NewEngine()
	n := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		if n++; n < 1000 {
			tm.Reset(e.Now().Add(Nanosecond))
		}
	})
	cycle := func() {
		n = 0
		tm.Reset(e.Now().Add(Nanosecond))
		e.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("fire-and-re-arm allocates %.1f per 1000 cycles, want 0", allocs)
	}
	if n != 1000 {
		t.Fatalf("callback ran %d times, want 1000", n)
	}

	tm.Reset(e.Now().Add(Microsecond))
	at := e.Now().Add(Microsecond)
	if allocs := testing.AllocsPerRun(1000, func() {
		at = at.Add(Nanosecond)
		tm.Reset(at)
	}); allocs != 0 {
		t.Fatalf("Reset allocates %.1f, want 0", allocs)
	}
}

// TestTimerPurge: stopped timers' events leave the heap once they are half as
// many as the live ones, a timer re-armed after Stop keeps its covers, the drained
// clock is still the furthest deadline ever armed — on one engine and on a
// shard — and a purge in place allocates nothing.
func TestTimerPurge(t *testing.T) {
	const n = 10000
	e := NewEngine()
	ref := NewEngine() // the push-per-arm timeout, for the drained clock
	timers := make([]*Timer, n)
	refs := make([]*genTimer, n)
	for i := range timers {
		timers[i] = e.NewTimer(func() { t.Error("a stopped timer fired") })
		refs[i] = &genTimer{e: ref, fn: func() {}}
	}
	live := func() int {
		k := 0
		for _, tm := range timers {
			if tm.Armed() {
				k += len(tm.queued)
			}
		}
		return k
	}
	arm := func(check bool) {
		start := e.Now()
		for _, d := range []Duration{10 * Millisecond, Millisecond} {
			for i, tm := range timers {
				tm.Reset(start.Add(d))
				if check {
					refs[i].Reset(start.Add(d))
				}
			}
		}
	}
	stop := func(check bool) {
		for i, tm := range timers {
			tm.Stop()
			if check {
				refs[i].Stop()
				if p, l := e.Pending(), live(); i%97 == 0 && p > 2*l+64 {
					t.Fatalf("%d of %d timers stopped: %d events pending for %d live", i+1, n, p, l)
				}
			}
		}
	}
	arm(true)
	stop(true)
	if p := e.Pending(); p > 64 {
		t.Fatalf("every timer stopped, %d events still pending", p)
	}
	if got, want := e.Run(), ref.Run(); got != want || got != Time(10*Millisecond) {
		t.Fatalf("drained at %v, push-per-arm timeouts at %v, want %v", got, want, 10*Millisecond)
	}
	if allocs := testing.AllocsPerRun(3, func() { arm(false); stop(false); e.Run() }); allocs != 0 {
		t.Fatalf("arm, re-arm, stop and purge %d timers: %.0f allocations, want 0", n, allocs)
	}

	// A timer re-armed after Stop keeps the cover it had: the purge judges
	// deadness when it runs, not when the timer stopped.
	fired := Time(0)
	keep := e.NewTimer(func() { fired = e.Now() })
	base := e.Now()
	arm(false)
	keep.Reset(base.Add(Millisecond))
	keep.Stop()
	keep.Reset(base.Add(2 * Millisecond)) // covered by the 1 ms event: no push
	stop(false)
	if len(keep.queued) != 1 || keep.queued[0].at != base.Add(Millisecond) {
		t.Fatalf("re-armed timer holds %d covers after the purge, want its 1", len(keep.queued))
	}
	e.Run()
	if fired != base.Add(2*Millisecond) {
		t.Fatalf("re-armed timer fired at %v, want %v", fired, base.Add(2*Millisecond))
	}

	// A shard's horizon is part of Sharded.Run's drained clock, though the
	// purge leaves nothing queued at it.
	s := NewSharded(2, 2, Microsecond)
	for i := 0; i < 10; i++ {
		s.Engine(0).At(Time(i)*Time(100*Nanosecond), func() {})
	}
	tm := s.Engine(1).NewTimer(func() {})
	tm.Reset(Time(10 * Millisecond))
	tm.Stop()
	if p := s.Engine(1).Pending(); p != 0 {
		t.Fatalf("stopped timer left %d events on its shard", p)
	}
	if end := s.Run(); end != Time(10*Millisecond) {
		t.Fatalf("sharded run drained at %v, want the shard's horizon %v", end, 10*Millisecond)
	}
}

// TestTimerPendingBound: the heap grows with the number of times the
// deadline moved earlier, not with the number of resets.
func TestTimerPendingBound(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	const n, earlier = 10000, 7
	for i := 0; i < n; i++ {
		tm.Reset(Time(1000 + i)) // later every time
		tm.Reset(Time(1000 + i)) // and once more at the same deadline
	}
	if e.Pending() != 1 {
		t.Fatalf("%d pushed-back resets left %d events pending, want 1", 2*n, e.Pending())
	}
	for i := 1; i <= earlier; i++ {
		tm.Reset(Time(1000 - i))
	}
	if e.Pending() != 1+earlier {
		t.Fatalf("%d earlier resets left %d events pending, want %d", earlier, e.Pending(), 1+earlier)
	}
	before := e.Fired()
	end := e.Run()
	if fired != 1 {
		t.Fatalf("callback ran %d times, want once", fired)
	}
	// Drained at the horizon, the furthest deadline ever armed.
	if end != Time(1000+n-1) {
		t.Fatalf("drained at %v, want %v", end, Time(1000+n-1))
	}
	if got := e.Fired() - before; got > 2+earlier {
		t.Fatalf("%d heap events fired for one expiry after %d earlier moves", got, earlier)
	}
}
