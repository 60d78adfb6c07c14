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
// in the heap while the near ones churn above them, and three whole numbers
// of band slots that land exactly on the band's last slot (span−1), the
// heap's first (span) and the one after it (span+1), wherever the clock sits
// inside its own slot.
var orderDeltas = [16]Duration{0, 0, 0, 1, 1, 2, 3, 5, 10, 100, 5000, 1e6,
	(bandSlots - 1) << bandShift, bandSlots << bandShift, (bandSlots + 1) << bandShift, 1e9}

// Indexes into orderDeltas, for the hand-written seeds.
const (
	dTie     = 0  // 0: the instant of the operation
	dOne     = 3  // 1 ps
	dHundred = 9  // 100 ps
	dNear    = 10 // 5000 ps, inside one band slot
	dMicro   = 11 // 1 µs, a few dozen band slots out
	dLast    = 12 // span−1 slots: the band's last slot
	dSpan    = 13 // span slots: the heap's first
	dPast    = 14 // span+1 slots
	dFar     = 15 // 1 ms, deep in the heap
)

// orderSeeds are programs aimed at the band's edges, as (opcode, operand)
// pairs; each ends by stepping everything out.
var orderSeeds = [][]byte{
	// Deltas at span−1, span and span+1 slots, with the clock at three
	// offsets inside its slot.
	{0, dLast, 0, dSpan, 0, dPast, 7, dNear, 0, dLast, 0, dSpan, 0, dPast, 7, dHundred,
		0, dPast, 0, dSpan, 0, dLast, 6, 7, 6, 7, 6, 7},
	// Slot-index wrap-around: each RunUntil moves the clock span−1 slots, so
	// the ring index of the band's last slot walks all the way round, while
	// heap events a slot beyond the band come due among band events.
	{0, dLast, 0, dPast, 7, dLast, 0, dLast, 0, dMicro, 0, dPast, 7, dLast, 0, dLast, 0, dSpan,
		7, dLast, 0, dLast, 0, dOne, 7, dLast, 0, dLast, 0, dPast, 7, dLast, 6, 7, 6, 7},
	// A heap event due before a later band event: pop must compare the
	// band's head with the heap's root.
	{0, dPast, 7, dLast, 0, dLast, 0, dOne, 6, 7, 0, dSpan, 7, dMicro, 0, dLast, 6, 7},
	// Two events in one slot that differ only by seq, among other ties; and
	// a timer whose reserved (at, seq) is pushed when its early cover fires,
	// behind a plain event at the same instant with a later seq, so the slot
	// is ordered by seq, not by arrival.
	{0, dTie, 0, dTie, 2, dTie, 0, dOne, 0, dOne, 0, dHundred, 0, dHundred,
		4, 0<<4 | dOne, 4, 0<<4 | dHundred, 0, dHundred, 6, 7, 6, 7},
	// A timer whose cover sits in the heap while its deadline moves into the
	// band: an earlier Reset pushes a band cover in front of the heap one,
	// and a clock that catches up leaves a later deadline covered from the
	// heap.
	{4, 0<<4 | dFar, 4, 0<<4 | dLast, 4, 1<<4 | dPast, 7, dMicro, 4, 1<<4 | dPast,
		4, 1<<4 | dNear, 4, 2<<4 | dSpan, 7, dLast, 4, 2<<4 | dMicro, 6, 7, 6, 7, 6, 7},
	// A purge with dead events in both tiers: two timers covered from the
	// heap and two from the band, stopped in turn beside plain events.
	{4, 0<<4 | dFar, 4, 1<<4 | dMicro, 4, 2<<4 | dLast, 4, 3<<4 | dPast, 0, dFar, 0, dNear,
		5, 0, 5, 1, 0, dMicro, 5, 2, 5, 3, 4, 1<<4 | dNear, 6, 7, 6, 7},
}

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
	for _, prog := range orderSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		eng := NewEngine()
		got := orderPlay(prog, eng, func(fn func()) rearmer { return newTimer(eng, fn) })
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
		checkDrained(t, eng)
	})
}

// checkDrained asserts what a drained engine holds after whatever depth a
// program reached: every heap slot is the sentinel with no handler, and every
// band node is on the free list with no handler, in a band with no occupied
// slot.
func checkDrained(t *testing.T, eng *Engine) {
	t.Helper()
	for i, k := range eng.keys {
		if i >= heapRoot && (k != sentinelKey || eng.hs[i] != nil) {
			t.Fatalf("drained heap slot %d holds %+v / %v, want the sentinel and no handler", i, k, eng.hs[i])
		}
	}
	if eng.nodes[0].key != sentinelKey {
		t.Fatalf("band node 0 holds %+v, want the sentinel", eng.nodes[0].key)
	}
	free := 0
	for i := eng.free; i != 0; i = eng.nodes[i].next {
		if free++; free >= len(eng.nodes) {
			t.Fatalf("the band's free list loops")
		}
	}
	if free != len(eng.nodes)-1 {
		t.Fatalf("drained band has %d of %d nodes free", free, len(eng.nodes)-1)
	}
	for i, n := range eng.nodes {
		if n.h != nil {
			t.Fatalf("freed band node %d still holds %v", i, n.h)
		}
	}
	if eng.nb != 0 || eng.bmin != 0 || eng.occWords != 0 || eng.occ != [bandWords]uint64{} || eng.head != [bandSlots]int32{} {
		t.Fatalf("drained band: %d events, earliest node %d, occupancy %#x %x", eng.nb, eng.bmin, eng.occWords, eng.occ)
	}
}
