package sim

import "testing"

// TestBandTiers pins where an event lands: in the band when its slot is
// fewer than bandSlots past the clock's, in the heap otherwise, wherever the
// clock sits inside its own slot and however far the ring index has wrapped.
// Whichever tier holds them, events fire in (at, seq) order.
func TestBandTiers(t *testing.T) {
	const slot = Duration(1) << bandShift
	e := NewEngine()
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	for lap := 0; lap < 5; lap++ {
		for _, offset := range []Duration{0, 1, slot / 2, slot - 1} {
			e.RunUntil(e.Now().Add(offset))
			now := e.Now()
			for _, tc := range []struct {
				slots int
				band  bool
			}{{0, true}, {bandSlots - 1, true}, {bandSlots, false}, {bandSlots + 1, false}} {
				// The first and the last picosecond of the slot tc.slots past
				// the clock's (the first of slot +0 is before the clock).
				start := Time(uint64(now)>>bandShift+uint64(tc.slots)) << bandShift
				for _, at := range []Time{max(start, now), start + Time(slot) - 1} {
					nb, n := e.nb, e.n
					e.At(at, record)
					if inBand := e.nb == nb+1 && e.n == n; inBand != tc.band {
						t.Fatalf("lap %d, clock %v: an event at %v (slot +%d) in the band: %v, want %v", lap, now, at, tc.slots, inBand, tc.band)
					}
				}
			}
			// Fire the band's events and the heap's first two: the heap's
			// root comes due between band events of the next round.
			e.RunUntil(Time(uint64(now)>>bandShift+bandSlots+1) << bandShift)
		}
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event %d fired at %v after one at %v", i, fired[i], fired[i-1])
		}
	}
	if len(fired) != 5*4*8 {
		t.Fatalf("fired %d events, scheduled %d", len(fired), 5*4*8)
	}
	checkDrained(t, e)
}

// TestBandPurgeBothTiers: the purge threshold counts both tiers, so stopped
// timers covered from the band are dropped as promptly as those covered from
// the heap, a purge drops them from both, and it allocates nothing.
func TestBandPurgeBothTiers(t *testing.T) {
	const n = 2000
	e := NewEngine()
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = newTimer(e, func() { t.Error("a stopped timer fired") })
	}
	plain := 0
	tick := func() { plain++ }
	arm := func() {
		start := e.Now()
		for i, tm := range timers {
			// Even timers are covered from the band, odd ones from the heap.
			d := Microsecond + Duration(i)*Nanosecond
			if i%2 == 1 {
				d = Millisecond
			}
			tm.Reset(start.Add(d))
		}
		e.After(Microsecond, tick)
		e.After(Millisecond, tick)
	}
	arm()
	if e.nb < n/2 || e.n < n/2 {
		t.Fatalf("%d timers armed: %d events in the band, %d in the heap, want %d or more in each", n, e.nb, e.n, n/2)
	}
	for i, tm := range timers {
		tm.Stop()
		if p := e.Pending(); p > 3*(n-i-1)+2 {
			t.Fatalf("%d of %d timers stopped: %d events pending", i+1, n, p)
		}
	}
	if e.Pending() != 2 {
		t.Fatalf("every timer stopped: %d events pending, want the 2 plain ones", e.Pending())
	}
	e.Run()
	if plain != 2 {
		t.Fatalf("%d of 2 plain events fired", plain)
	}
	checkDrained(t, e)
	if allocs := testing.AllocsPerRun(3, func() {
		arm()
		for _, tm := range timers {
			tm.Stop()
		}
		e.Run()
	}); allocs != 0 {
		t.Fatalf("arm and stop %d timers over both tiers: %.0f allocations, want 0", n, allocs)
	}
}
