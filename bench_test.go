package norman_test

// One benchmark per experiment in the DESIGN.md index. Each bench runs the
// full-scale driver once per b.N iteration and reports the experiment table
// on the first iteration; `go test -bench . -benchmem` therefore regenerates
// every table the reproduction promises. cmd/kopibench wraps the same
// drivers for ad-hoc runs.
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

// benchScale is the configuration benches run at; 1.0 is the full
// experiment (tests use smaller scales for speed).
const benchScale = experiments.Scale(1.0)

func BenchmarkE1Dataplanes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE1(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
		}
	}
}

func BenchmarkE2Capabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE2(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
		}
	}
}

func BenchmarkE3ConnScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE3(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
		}
	}
}

func BenchmarkE4Reconfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE4(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
		}
	}
}

func BenchmarkE5Exhaustion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE5(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
		}
	}
}

func BenchmarkE6QoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE6(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
		}
	}
}

func BenchmarkE7Blocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE7(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
		}
	}
}

func BenchmarkE8OwnerFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE8(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl) // stdout: the bench log truncates long tables
		}
	}
}

func BenchmarkE9Faults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE9(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl)
		}
	}
}

func BenchmarkE10Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE10(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl)
		}
	}
}

func BenchmarkE11Overload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE11(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl)
		}
	}
}

func BenchmarkE12ConnScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE12(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl)
		}
	}
}

func BenchmarkE13TenantIsolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE13(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl)
		}
	}
}

func BenchmarkE14FlowCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE14(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl)
		}
	}
}

func BenchmarkE15Health(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE15(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl)
		}
	}
}

func BenchmarkE16Upgrade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tbl := experiments.RunE16(benchScale)
		if i == 0 {
			fmt.Printf("\n%s\n", tbl)
		}
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
