package sim

import (
	"math/rand"
	"testing"
)

// orderEngine is what FuzzEngineOrder drives: Engine and the refEngine oracle.
type orderEngine interface {
	Now() Time
	AtHandler(Time, Handler)
	At(Time, func())
	After(Duration, func())
	Step() bool
	Run() Time
	RunUntil(Time) Time
	Stop()
	Pending() int
	NextAt() (Time, bool)
}

// orderDeltas are the horizons a program schedules at: mostly tiny, so many
// events share an instant and seq decides, with a few far ones that sit deep
// in the heap while the near ones churn above them.
var orderDeltas = [16]Duration{0, 0, 0, 1, 1, 2, 3, 5, 10, 10, 100, 1000, 5000, 1e6, 1e6 + 1, 1e9}

// Bounds on what one program may cost: the deepest heap a burst builds, and
// how much of an input the fuzzer has grown is played.
const (
	orderMaxDepth = 5000
	orderMaxProg  = 4096
	orderMaxBurst = 30000 // events over all bursts
)

// orderObs is what a program observes: in trace, (label, Now) at every fire
// and Now after every operation; in queue, Pending and NextAt (-1 for none)
// after every operation.
type orderObs struct {
	trace, queue []int64
}

// orderPlay interprets prog, two bytes (opcode, operand) at a time, on e.
func orderPlay(prog []byte, e orderEngine, mk func(fn func()) rearmer) orderObs {
	var obs orderObs
	plainFired := 0
	fired := func(label int) {
		if label > 0 {
			plainFired++
		}
		obs.trace = append(obs.trace, int64(label), int64(e.Now()))
	}
	// step fires the next callback, one Step at a time: a Step that pops a
	// disarmed timer's event observes nothing, and the engine may have purged
	// it. With nothing left it drains as Run does and reports false.
	step := func() bool {
		for before := len(obs.trace); len(obs.trace) == before; {
			if !e.Step() {
				e.Run()
				return false
			}
		}
		return true
	}
	label := 0
	plain := func() func() {
		label++
		id := label
		return func() { fired(id) }
	}
	var timers [4]rearmer
	var expiries [4]int
	for i := range timers {
		i := i
		timers[i] = mk(func() {
			fired(-1 - i)
			// Re-arm from inside the callback two expiries out of three, so
			// every chain ends.
			if expiries[i]++; expiries[i]%3 != 0 {
				timers[i].Reset(e.Now().Add(orderDeltas[expiries[i]%len(orderDeltas)]))
			}
		})
	}
	prog = prog[:min(len(prog), orderMaxProg)]
	burst := orderMaxBurst
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		at := e.Now().Add(orderDeltas[arg%16])
		switch op % 10 {
		case 0:
			e.At(at, plain())
		case 1:
			e.After(orderDeltas[arg%16], plain())
		case 2:
			e.AtHandler(at, funcHandler(plain()))
		case 3: // an event that schedules a successor when it fires
			first, second := plain(), plain()
			e.At(at, func() { first(); e.After(orderDeltas[arg>>4], second) })
		case 4:
			timers[arg>>4%4].Reset(at)
		case 5:
			timers[arg%4].Stop()
		case 6:
			for n := int(arg % 8); n >= 0 && step(); n-- {
			}
		case 7: // resumed after every Stop: where a stopped RunUntil leaves the
			// clock depends on what is still queued, dead timer events included
			for e.RunUntil(at) < at {
			}
		case 8: // a burst, for depth (bounded by the program's own count, which
			// unlike Pending is the same on both engines)
			for n := 4 * int(arg); n > 0 && burst > 0 && label-plainFired < orderMaxDepth; n-- {
				e.At(e.Now().Add(orderDeltas[(n+int(arg))%16]), plain())
				burst--
			}
		case 9: // an event that stops the RunUntil it fires in
			stopper := plain()
			e.At(at, func() { stopper(); e.Stop() })
		}
		next, ok := e.NextAt()
		if !ok {
			next = -1
		}
		obs.trace = append(obs.trace, int64(e.Now()))
		obs.queue = append(obs.queue, int64(e.Pending()), int64(next))
	}
	for step() {
	}
	obs.trace = append(obs.trace, int64(e.Now()))
	return obs
}

// FuzzEngineOrder holds the engine to the heap and timer it replaced: over
// random interleavings of At, After, AtHandler, Timer.Reset, Timer.Stop, Step
// and RunUntil (with events that stop it), at depths from 0 to 5000 and with
// most events tied on their instant, the fired order, the clock at each fire
// and after every operation, and the drained clock are the same. The oracle
// keeps every disarmed timer's events until they fire and parks one more at
// each timer's horizon; the engine purges the first and keeps one horizon, so
// it never queues more, and its earliest event is never earlier.
func FuzzEngineOrder(f *testing.F) {
	g := rand.New(rand.NewSource(15))
	for seed := 0; seed < 12; seed++ {
		prog := make([]byte, 3000)
		g.Read(prog)
		switch seed % 3 {
		case 1: // start deep: five full bursts
			copy(prog, []byte{8, 255, 8, 255, 8, 255, 8, 255, 8, 255})
		case 2: // every horizon 0: one instant, seq alone decides
			for i := 1; i < len(prog); i += 2 {
				prog[i] &= 0xf0
			}
		}
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		eng := NewEngine()
		got := orderPlay(prog, eng, func(fn func()) rearmer { return eng.NewTimer(fn) })
		ref := &refEngine{}
		want := orderPlay(prog, ref, func(fn func()) rearmer { return &refTimer{e: ref, fn: fn} })
		for i := 0; i < len(got.trace) && i < len(want.trace); i++ {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("observation %d of %d: engine %d, reference %d", i, len(want.trace), got.trace[i], want.trace[i])
			}
		}
		if len(got.trace) != len(want.trace) {
			t.Fatalf("engine made %d observations, reference %d", len(got.trace), len(want.trace))
		}
		for i := 0; i < len(want.queue); i += 2 {
			pending, next := got.queue[i], got.queue[i+1]
			if refPending, refNext := want.queue[i], want.queue[i+1]; pending > refPending || next >= 0 && next < refNext {
				t.Fatalf("after operation %d: engine holds %d events, earliest at %d; reference %d, earliest at %d",
					i/2, pending, next, refPending, refNext)
			}
		}
		// The sentinel invariant, after whatever depth the program reached.
		for i, k := range eng.keys {
			if i >= heapRoot && (k != sentinelKey || eng.hs[i] != nil) {
				t.Fatalf("drained heap slot %d holds %+v / %v, want the sentinel and no handler", i, k, eng.hs[i])
			}
		}
	})
}
