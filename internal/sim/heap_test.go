package sim

import (
	"sort"
	"testing"
	"unsafe"
)

// TestEngineHeapOrderingChurn drives the 4-ary heap through a randomized
// push/pop interleaving and checks that events fire in exactly (time, seq)
// order — the same order a stable sort over the schedule would produce.
func TestEngineHeapOrderingChurn(t *testing.T) {
	g := NewRNG(3, "heap-churn")
	e := NewEngine()

	type key struct {
		at  Time
		idx int // scheduling order among same-time events
	}
	var want []key
	var got []key
	idx := 0
	schedule := func(n int) {
		base := e.Now()
		for i := 0; i < n; i++ {
			at := base.Add(Duration(g.Intn(500)) * Nanosecond)
			k := key{at: at, idx: idx}
			idx++
			want = append(want, k)
			e.At(at, func() { got = append(got, k) })
		}
	}

	schedule(200)
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			e.Step()
		}
		schedule(g.Intn(30))
	}
	e.Run()

	sort.SliceStable(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].idx < want[j].idx
	})
	if len(got) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired out of order: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEngineSteadyStateAllocs checks the zero-alloc fast path: once the heap
// backing array is warm, scheduling and firing events must not allocate.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < 1000 {
			e.After(Nanosecond, fire)
		}
	}
	// Warm the heap capacity.
	e.At(0, fire)
	e.Run()

	n = 0
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		e.At(e.Now(), fire)
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("steady-state event dispatch allocates %.1f/run, want 0", allocs)
	}
}

// countdown is a pooled-record-style Handler: it re-arms itself until spent.
type countdown struct {
	e    *Engine
	left int
}

func (c *countdown) Fire() {
	if c.left--; c.left > 0 {
		c.e.AtHandler(c.e.Now().Add(Nanosecond), c)
	}
}

// TestEngineHandlerFormAllocs pins the closure-free scheduling form: a
// record that implements Handler rides the heap as itself, so arming and
// firing it allocates nothing — and it interleaves with func() events in
// plain scheduling order.
func TestEngineHandlerFormAllocs(t *testing.T) {
	e := NewEngine()
	c := &countdown{e: e}
	run := func() {
		c.left = 1000
		e.AtHandler(e.Now(), c)
		e.Run()
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Fatalf("handler-form dispatch allocates %.1f/run, want 0", allocs)
	}

	var order []int
	at := e.Now().Add(Nanosecond)
	e.At(at, func() { order = append(order, 1) })
	e.AtHandler(at, funcHandler(func() { order = append(order, 2) }))
	e.At(at, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("same-instant handlers and funcs fired as %v, want scheduling order", order)
	}
}

// TestFiredTotal checks that engine-fired counts flush to the global
// aggregate when runs return.
func TestFiredTotal(t *testing.T) {
	before := FiredTotal()
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if d := FiredTotal() - before; d != 10 {
		t.Fatalf("FiredTotal advanced by %d, want 10", d)
	}
	// A second Run with no new events must not double-count.
	e.Run()
	if d := FiredTotal() - before; d != 10 {
		t.Fatalf("FiredTotal advanced by %d after idle Run, want 10", d)
	}
}

// TestHeapSiblingsShareALine pins the host layout the heap's index scheme
// exists for: at every capacity the key array starts on a 64-byte boundary,
// so each aligned group of four 16-byte sibling keys is one host line. The
// events are scheduled beyond the band, so every one of them grows the heap.
func TestHeapSiblingsShareALine(t *testing.T) {
	if size := unsafe.Sizeof(key{}); size != 16 {
		t.Fatalf("key is %d bytes, want 16", size)
	}
	e := NewEngine()
	beyond := Time(bandSlots << bandShift)
	for n := 1; n <= 1<<14; n++ {
		e.At(beyond+Time(n), func() {})
		if e.Pending() != e.n {
			t.Fatalf("event %d landed in the band", n)
		}
		if base := uintptr(unsafe.Pointer(&e.keys[0])); base%64 != 0 || len(e.keys)%heapArity != 0 {
			t.Fatalf("at %d events the key array is %d long at %#x: sibling groups straddle host lines", n, len(e.keys), base)
		}
	}
}
