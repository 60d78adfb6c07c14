package sim

import (
	"fmt"
	"sync/atomic"
)

// Handler is the closure-free form of an event callback: a value that knows
// how to continue when its instant arrives. Per-packet model code schedules a
// pooled record that implements it (AtHandler) instead of building a func()
// that captures the same fields, so a steady-state datapath hop allocates
// nothing.
type Handler interface{ Fire() }

// funcHandler adapts a plain func() to Handler. A func value is
// pointer-shaped, so the conversion to the interface stores it directly: At
// and After cost no allocation beyond the closure the caller already built.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// An event is a Handler scheduled at a point in virtual time. Events at the
// same instant fire in scheduling order (seq breaks ties), which keeps runs
// deterministic regardless of heap internals.
//
// Events are stored by value in the engine's heap slice — four words, no
// per-event node — so scheduling itself never allocates once the slice has
// grown to the run's peak depth. The engine does not own what h points at: a
// popped slot has its h cleared so the heap's spare capacity retains no
// reference to a fired closure or record, and whoever scheduled the handler
// decides whether it is garbage (a closure) or goes back on a free list (a
// datapath job record).
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// less orders events by time, then by scheduling sequence.
func (a *event) less(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary rather than binary: a shallower tree means fewer
// comparison levels per sift, and the four children of a node share two
// cache lines, so the extra per-level comparisons are nearly free. For the
// event-queue access pattern (push future, pop min) this is measurably
// faster than container/heap and needs no interface dispatch.
const heapArity = 4

// Engine is a single-threaded discrete-event simulator.
//
// Engines are not safe for concurrent use; all model code runs inside event
// callbacks on the goroutine that calls Run or Step. Distinct engines are
// fully independent: running many worlds on parallel goroutines (one engine
// per goroutine) is safe and is how the experiment harness fans sweeps out
// across cores.
type Engine struct {
	now     Time
	seq     uint64
	events  []event // 4-ary min-heap, root at index 0
	stopped bool
	nFired  uint64
	flushed uint64 // portion of nFired already added to firedTotal
}

// firedTotal aggregates events fired across all engines, flushed in batches
// when Run/RunUntil return so the hot loop never touches shared memory.
// cmd/kopibench reads it to report events/sec per experiment.
var firedTotal atomic.Uint64

// FiredTotal returns the process-wide count of events executed by engines
// whose Run/RunUntil calls have returned. It is safe to read concurrently
// with running engines; in-flight runs contribute only on return.
func FiredTotal() uint64 { return firedTotal.Load() }

// NewEngine returns an engine positioned at the simulation epoch.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful as a progress
// and runaway-detection metric in tests).
func (e *Engine) Fired() uint64 { return e.nFired }

// push inserts ev, sifting it up to its heap position.
func (e *Engine) push(ev event) {
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

// pop removes and returns the earliest event. The caller must have checked
// len(e.events) > 0. The vacated tail slot's handler is cleared so the heap's
// spare capacity retains no references (it is reused by future pushes, not a
// root set).
func (e *Engine) pop() event {
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
func (e *Engine) siftDown(ev event) {
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

// AtHandler schedules h.Fire to run at absolute time t. Scheduling in the
// past panics: a causality violation is always a model bug.
func (e *Engine) AtHandler(t Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, h: h})
}

// At schedules fn to run at absolute time t (AtHandler for a plain func).
func (e *Engine) At(t Time, fn func()) { e.AtHandler(t, funcHandler(fn)) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event %v in the past", d))
	}
	e.AtHandler(e.now.Add(d), funcHandler(fn))
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; a subsequent Run continues from where it stopped. The
// fired-event delta is flushed to FiredTotal immediately so a stopped
// engine's work is never invisible to process-wide accounting.
func (e *Engine) Stop() {
	e.stopped = true
	e.flushFired()
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.nFired++
	ev.h.Fire()
	return true
}

// flushFired publishes this engine's fired-event delta to the global
// counter. Called on Run/RunUntil exit, never per event.
func (e *Engine) flushFired() {
	if d := e.nFired - e.flushed; d > 0 {
		firedTotal.Add(d)
		e.flushed = e.nFired
	}
}

// Run executes events until the queue drains or Stop is called, and returns
// the final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	e.flushFired()
	return e.now
}

// RunUntil executes events with timestamps not after deadline. The clock is
// left at min(deadline, time of last event). Events scheduled beyond the
// deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.flushFired()
	return e.now
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// NextAt returns the time of the earliest pending event, if any. The shard
// coordinator uses it to fast-forward barriers over dead air.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// AddFired credits n logical sub-events processed inside the currently
// running callback — the accounting half of batched dispatch: when one
// engine event drains a burst of n ring descriptors, the engine has done
// n+1 events' worth of simulated work for one heap pop, and events/s
// reporting (Fired, FiredTotal) must say so. Flushed with the ordinary
// fired-count delta at run and barrier exits.
func (e *Engine) AddFired(n int) {
	if n > 0 {
		e.nFired += uint64(n)
	}
}
