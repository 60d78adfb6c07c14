package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end = %v, want 30", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events must fire in scheduling order: %v", got)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(100, func() { fired++ })
	e.RunUntil(50)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 || e.Now() != 100 {
		t.Fatalf("after Run: fired=%d now=%v", fired, e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("Stop should halt the loop: fired=%d", fired)
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("Run should resume: fired=%d", fired)
	}
}

// TestEngineStopRunUntil: a Stop that leaves an event queued before the
// deadline must not advance the clock past it — the next Run would set the
// clock back. With nothing left before the deadline, a stopped RunUntil
// still ends at the deadline.
func TestEngineStopRunUntil(t *testing.T) {
	e := NewEngine()
	e.At(10, e.Stop)
	e.At(20, func() {})
	if now := e.RunUntil(100); now != 10 || e.Pending() != 1 {
		t.Fatalf("RunUntil stopped at t=10 with an event due at 20: now=%v pending=%d, want 10 and 1", now, e.Pending())
	}
	if now := e.Run(); now != 20 {
		t.Fatalf("resumed Run ended at %v, want 20", now)
	}
	e.At(30, e.Stop)
	e.At(200, func() {})
	if now := e.RunUntil(100); now != 100 {
		t.Fatalf("RunUntil stopped by its last due event ended at %v, want the deadline 100", now)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(Nanosecond, recurse)
		}
	}
	e.At(0, recurse)
	end := e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if end != Time(99*Nanosecond) {
		t.Fatalf("end = %v", end)
	}
}

func TestServerFIFOAndUtilization(t *testing.T) {
	s := NewServer("test")
	start, done := s.Acquire(0, 100)
	if start != 0 || done != 100 {
		t.Fatalf("first job [%v,%v]", start, done)
	}
	// Submitted while busy: queues.
	start, done = s.Acquire(50, 100)
	if start != 100 || done != 200 {
		t.Fatalf("second job [%v,%v], want [100,200]", start, done)
	}
	// Submitted after idle gap.
	start, done = s.Acquire(300, 100)
	if start != 300 || done != 400 {
		t.Fatalf("third job [%v,%v], want [300,400]", start, done)
	}
	if s.BusyTime() != 300 {
		t.Fatalf("busy = %v, want 300", s.BusyTime())
	}
	if got := s.Utilization(400); got < 0.74 || got > 0.76 {
		t.Fatalf("utilization = %v, want 0.75", got)
	}
	if s.Jobs() != 3 {
		t.Fatalf("jobs = %d", s.Jobs())
	}
}

// Property: a server never starts a job before its submission or before the
// previous job completes, and busy time equals the sum of service times.
func TestServerInvariants(t *testing.T) {
	f := func(durations []uint16, gaps []uint16) bool {
		s := NewServer("q")
		now := Time(0)
		var prevDone Time
		var total Duration
		for i, d16 := range durations {
			if i < len(gaps) {
				now = now.Add(Duration(gaps[i]))
			}
			d := Duration(d16)
			start, done := s.Acquire(now, d)
			if start < now || start < prevDone {
				return false
			}
			if done != start.Add(d) {
				return false
			}
			prevDone = done
			total += d
		}
		return s.BusyTime() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.00ns"},
		{3 * Microsecond, "3.00us"},
		{4 * Millisecond, "4.000ms"},
		{5 * Second, "5.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestPerByteAndGbps(t *testing.T) {
	// 1538 bytes at 100 Gbps ≈ 123 ns.
	d := PerByte(1538, Gbps(100))
	if d < 122*Nanosecond || d > 124*Nanosecond {
		t.Fatalf("PerByte = %v", d)
	}
	if PerByte(100, 0) != 0 {
		t.Fatal("zero bandwidth should be free")
	}
	if PerByte(0, 1e9) != 0 {
		t.Fatal("zero bytes should be free")
	}
}

func TestScale(t *testing.T) {
	if got := Duration(1000).Scale(0.5); got != 500 {
		t.Fatalf("Scale(0.5) = %v", got)
	}
	if got := Duration(3).Scale(0.5); got != 2 { // rounds to nearest
		t.Fatalf("Scale rounding = %v", got)
	}
}

func TestRNGDeterminismAndIndependence(t *testing.T) {
	a1 := NewRNG(1, "alpha")
	a2 := NewRNG(1, "alpha")
	b := NewRNG(1, "beta")
	same, diff := true, false
	for i := 0; i < 32; i++ {
		x, y, z := a1.Uint64(), a2.Uint64(), b.Uint64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("same seed+label must replay identically")
	}
	if !diff {
		t.Error("different labels must give different streams")
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(7, "exp")
	const mean = Duration(1000 * Nanosecond)
	var sum Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(mean)
	}
	got := float64(sum) / n / float64(mean)
	if got < 0.95 || got > 1.05 {
		t.Fatalf("exp mean ratio = %v", got)
	}
}
