package norman_test

// BenchmarkExperiments runs every experiment of the index
// (experiments.All), one sub-benchmark per ID, at full scale once per b.N
// iteration and prints its table on the first; `go test -bench Experiments
// -benchtime 1x .` therefore regenerates every table the reproduction
// promises, and `-bench Experiments/E3` one of them. cmd/kopibench reads the
// same registry for ad-hoc runs.
//
// The drivers fan their independent worlds across a worker pool bounded at
// GOMAXPROCS (NORMAN_WORKERS=1 restores sequential execution for
// single-core-comparable wall-clock numbers). The tables are byte-identical
// either way; only the measured wall time changes.

import (
	"fmt"
	"testing"

	"norman/internal/experiments"
	"norman/internal/mem"
	"norman/internal/sim"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, tbl := e.Run(1.0)
				if i == 0 {
					fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
				}
			}
		})
	}
}

// TestEngineHotPathZeroAllocs guards the engine dispatch loop against
// allocation regressions: a warmed heap must schedule and fire events
// without touching the allocator.
func TestEngineHotPathZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	// Warm the event heap once; steady-state dispatch reuses its capacity.
	for i := 0; i < 64; i++ {
		eng.At(sim.Time(i), func() {})
	}
	eng.Run()
	fn := func() {}
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			eng.After(sim.Nanosecond, fn)
		}
		eng.Run()
	}); n != 0 {
		t.Fatalf("engine hot path allocates %.1f/op", n)
	}
}

// TestBatchedDrainZeroAllocs guards the batched drain bench/probe.go times —
// ring pop, flyweight slab updates, ring refill, batched fired credit — at
// zero allocations.
func TestBatchedDrainZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	ring := mem.NewBurstRing(512, 0)
	slab := mem.NewConnSlab(256, 0)
	scratch := make([]mem.PktRef, 256)
	for i := 0; i < 256; i++ {
		ring.Push(mem.PktRef{Conn: uint32(i), Len: 300})
	}
	drain := func() {
		m := ring.PopBurst(scratch)
		for i := range scratch[:m] {
			d := &scratch[i]
			slab.RxPkts[d.Conn]++
			slab.RxBytes[d.Conn] += uint64(d.Len)
		}
		ring.PushBurst(scratch[:m])
		eng.AddFired(m - 1)
	}
	eng.At(0, drain)
	eng.Run()
	if n := testing.AllocsPerRun(100, func() {
		eng.After(sim.Nanosecond, drain)
		eng.Run()
	}); n != 0 {
		t.Fatalf("batched ring drain allocates %.1f/op", n)
	}
}
