package sim

import "fmt"

// stamp is a place in the event order: an instant and the sequence number
// that orders it among events at that instant.
type stamp struct {
	at  Time
	seq uint64
}

// Timer is a re-armable one-shot: a timeout that is usually pushed back
// before it expires (a retransmission timer re-armed by every ACK). It is its
// own Handler, so re-arming allocates nothing, and it fires a Handler of its
// owner's, so an owner that keeps the Timer inside its own record (Init) and
// is its own Handler pays for neither a timer nor a callback.
//
// Reset is lazy and order-preserving. It reserves a sequence number exactly
// as After would and records the logical deadline (at, seq), but pushes an
// event only when none of the timer's queued events already fires at or
// before that deadline. The earliest queued event is the cover. A cover that
// fires early makes sure the deadline is still covered, pushing an event at
// the logical (at, seq) — the reserved seq, not a fresh one — when nothing
// else is queued before it, and the callback runs only when the firing event
// is the logical deadline. Event order is exactly (at, seq), so the callback
// fires at the instant and in the position the closure of a plain After(d,
// fn) would have: replacing a push-per-arm timeout with a Timer reorders
// nothing.
//
// When the deadline moves earlier than the cover, a new cover is pushed and
// the old one stays queued behind it; it covers a later deadline, or fires as
// a no-op. The queue grows with the number of times the deadline moved
// earlier, not with the number of resets.
//
// A disarmed timer's queued events are dead: they can only fire as no-ops.
// The engine counts them and, once they are half as many as the live events
// in both tiers of its event set, purges them (engine.go); a timer re-armed before the purge keeps its
// covers. What a push-per-arm timeout's cancelled events did for the clock —
// a drained Run walked to the furthest deadline ever armed — the engine's
// horizon does instead.
type Timer struct {
	e *Engine
	h Handler // fired at the deadline

	deadline stamp // logical deadline; seq 0 = disarmed

	// queued mirrors the timer's events in the engine, each strictly
	// earlier than the one below it, so the last entry is the cover and is
	// the one firing whenever Fire runs.
	queued []stamp
	buf    [3]stamp // queued's first backing array; a deeper stack spills to the heap
}

// Init makes t a disarmed timer on e that fires h when it expires. t must
// not be copied afterwards.
func (t *Timer) Init(e *Engine, h Handler) {
	*t = Timer{e: e, h: h}
	t.queued = t.buf[:0]
}

// Reset arms the timer to expire at absolute time at, replacing any earlier
// deadline. Like AtHandler it panics on a time before now.
func (t *Timer) Reset(at Time) {
	e := t.e
	if at < e.now {
		panic(fmt.Sprintf("sim: arming timer at %v before now %v", at, e.now))
	}
	if t.deadline.seq == 0 {
		e.dead -= len(t.queued) // its unpurged events are covers again
	}
	e.seq++
	t.deadline = stamp{at, e.seq}
	if at > e.horizon {
		e.horizon = at
	}
	t.cover(t.deadline)
}

// Stop disarms the timer. The callback does not run until the next Reset.
func (t *Timer) Stop() {
	if t.deadline.seq != 0 {
		t.disarm()
	}
}

// Armed reports whether a deadline is set and has not yet expired.
func (t *Timer) Armed() bool { return t.deadline.seq != 0 }

// disarm clears the deadline, which makes every queued event dead, and has
// the engine purge once the dead are half as many as the live. Pending counts
// both tiers: a threshold read off one tier's count would purge at a
// different rate.
func (t *Timer) disarm() {
	e := t.e
	t.deadline.seq = 0
	e.dead += len(t.queued)
	if e.dead > 0 && 3*e.dead >= e.Pending() {
		e.purge()
	}
}

// cover makes sure one of the timer's queued events fires at or before s,
// pushing s itself when none does.
func (t *Timer) cover(s stamp) {
	if n := len(t.queued); n == 0 || s.at < t.queued[n-1].at {
		t.queued = append(t.queued, s)
		t.e.push(event{key{uint64(s.at), s.seq}, t})
	}
}

// Fire implements Handler for the timer's own events.
func (t *Timer) Fire() {
	n := len(t.queued) - 1
	fired := t.queued[n]
	t.queued = t.queued[:n]
	if t.deadline.seq == 0 {
		t.e.dead--
		return
	}
	if fired.seq == t.deadline.seq {
		t.disarm()
		t.h.Fire()
		if t.deadline.seq == 0 {
			return
		}
	}
	t.cover(t.deadline) // woke early, or re-armed by fn
}
