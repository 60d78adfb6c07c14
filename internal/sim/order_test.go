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

// orderPlay interprets prog, two bytes (opcode, operand) at a time, on e and
// returns everything observable: (label, Now) at every fire, and (Now,
// Pending, NextAt) after every operation.
func orderPlay(prog []byte, e orderEngine, mk func(fn func()) rearmer) []int64 {
	var obs []int64
	fired := func(label int) { obs = append(obs, int64(label), int64(e.Now())) }
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
			for n := int(arg % 8); n >= 0; n-- {
				e.Step()
			}
		case 7:
			e.RunUntil(at)
		case 8: // a burst, for depth
			for n := 4 * int(arg); n > 0 && burst > 0 && e.Pending() < orderMaxDepth; n-- {
				e.At(e.Now().Add(orderDeltas[(n+int(arg))%16]), plain())
				burst--
			}
		case 9: // an event that stops the RunUntil it fires in
			stopper := plain()
			e.At(at, func() { stopper(); e.Stop() })
		}
		next, _ := e.NextAt()
		obs = append(obs, int64(e.Now()), int64(e.Pending()), int64(next))
	}
	for e.Step() {
	}
	return append(obs, int64(e.Now()), int64(e.Pending()))
}

// FuzzEngineOrder holds the branch-free heap to the heap it replaced: over
// random interleavings of At, After, AtHandler, Timer.Reset, Timer.Stop, Step
// and RunUntil (with events that stop it), at depths from 0 to 5000 and with
// most events tied on their instant, the fired order, the clock at each fire,
// Pending and NextAt are the same.
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
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("observation %d of %d: engine %d, reference %d", i, len(want), got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine made %d observations, reference %d", len(got), len(want))
		}
		// The sentinel invariant, after whatever depth the program reached.
		for i, k := range eng.keys {
			if i >= heapRoot && (k != sentinelKey || eng.hs[i] != nil) {
				t.Fatalf("drained heap slot %d holds %+v / %v, want the sentinel and no handler", i, k, eng.hs[i])
			}
		}
	})
}
