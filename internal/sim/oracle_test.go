package sim

import "fmt"

// refEngine is the engine as it was before the branch-free heap: one slice of
// {at, seq, h} events, a two-word compare with a branch on the instant, a
// child scan bounded by the heap length. push, pop, siftDown and less are
// moved here verbatim as the oracle FuzzEngineOrder holds Engine to; the
// scheduling and run methods around them are the few lines that define the
// engine's contract (RunUntil with its Stop rule), and refTimer is Timer as it
// was before the purge and the engine horizon, bound to this engine: a
// disarmed timer's events stay queued until they fire as no-ops, and the last
// one parks a final no-op at the timer's own horizon. A schedule that arms
// timers reserves the same (at, seq) keys on both engines.
type refEngine struct {
	now     Time
	seq     uint64
	events  []refEvent // 4-ary min-heap, root at index 0
	stopped bool
}

type refEvent struct {
	at  Time
	seq uint64
	h   Handler
}

// less orders events by time, then by scheduling sequence.
func (a *refEvent) less(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting it up to its heap position.
func (e *refEngine) push(ev refEvent) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.less(&e.events[parent]) {
			break
		}
		e.events[i] = e.events[parent]
		i = parent
	}
	e.events[i] = ev
}

// pop removes and returns the earliest event.
func (e *refEngine) pop() refEvent {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n].h = nil
	e.events = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown places ev, notionally at the root, into its heap position.
func (e *refEngine) siftDown(ev refEvent) {
	h := e.events
	n := len(h)
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		m := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(&h[m]) {
				m = c
			}
		}
		if !h[m].less(&ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

func (e *refEngine) Now() Time    { return e.now }
func (e *refEngine) Pending() int { return len(e.events) }
func (e *refEngine) Stop()        { e.stopped = true }

func (e *refEngine) AtHandler(t Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(refEvent{at: t, seq: e.seq, h: h})
}

func (e *refEngine) At(t Time, fn func())        { e.AtHandler(t, funcHandler(fn)) }
func (e *refEngine) After(d Duration, fn func()) { e.AtHandler(e.now.Add(d), funcHandler(fn)) }

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.h.Fire()
	return true
}

func (e *refEngine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

func (e *refEngine) NextAt() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

func (e *refEngine) RunUntil(deadline Time) Time {
	e.stopped = false
	for {
		at, ok := e.NextAt()
		if !ok || at > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return e.now
		}
		if e.stopped {
			return e.now
		}
		e.Step()
	}
}

// refTimer is Timer (timer.go) on a refEngine.
type refTimer struct {
	e        *refEngine
	fn       func()
	deadline stamp
	horizon  stamp
	queued   []stamp
}

func (t *refTimer) Reset(at Time) {
	e := t.e
	if at < e.now {
		panic(fmt.Sprintf("sim: arming timer at %v before now %v", at, e.now))
	}
	e.seq++
	t.deadline = stamp{at, e.seq}
	if at >= t.horizon.at {
		t.horizon = t.deadline
	}
	t.cover(t.deadline)
}

func (t *refTimer) Stop()       { t.deadline.seq = 0 }
func (t *refTimer) Armed() bool { return t.deadline.seq != 0 }

func (t *refTimer) cover(s stamp) {
	if n := len(t.queued); n == 0 || s.at < t.queued[n-1].at {
		t.queued = append(t.queued, s)
		t.e.push(refEvent{at: s.at, seq: s.seq, h: t})
	}
}

func (t *refTimer) Fire() {
	n := len(t.queued) - 1
	fired := t.queued[n]
	t.queued = t.queued[:n]
	if fired.seq == t.deadline.seq {
		t.deadline.seq = 0
		t.fn()
	}
	next := t.deadline
	if next.seq == 0 {
		if next = t.horizon; next.at <= t.e.now {
			return
		}
	}
	t.cover(next)
}
