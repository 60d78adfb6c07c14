package sim

import (
	"fmt"
	"math"
	"math/bits"
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
// deterministic regardless of the event set's internals.
//
// The heap stores an event as two parallel entries — its key in Engine.keys,
// its handler in Engine.hs — and the band as a bandNode in a free-listed
// arena, so scheduling never allocates once both have grown to the run's peak
// depth. The engine does not own what h points at: a popped heap slot or band
// node has its handler cleared so spare capacity retains no reference to a
// fired closure or record, and whoever scheduled the handler decides whether
// it is garbage (a closure) or goes back on a free list (a datapath job
// record).
type event struct {
	key
	h Handler
}

// key is an event's place in the total order, compared as one 128-bit
// integer: the instant as an unsigned word (nothing is scheduled before the
// epoch, so the conversion from Time preserves order), then the sequence
// number.
type key struct {
	at, seq uint64
}

// lt returns 1 when a orders strictly before b and 0 otherwise: the borrow
// out of the 128-bit subtraction a − b, computed without a branch.
func lt(a, b key) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return borrow
}

// pick returns j when take is 1 and i when it is 0, without a branch.
func pick(take uint64, i, j int) int {
	return i ^ ((i ^ j) & -int(take))
}

// The event set is two tiers: a near band for the events due within
// bandSlots slots of the clock, and behind it a 4-ary heap, the overflow tier,
// for everything later (DESIGN.md §8 "Event set: a near band over the heap").
// An event lands in one tier when it is pushed and stays there; the next event
// is the smaller of the band's head and the heap's root. Queued keys are
// distinct and (at, seq) is a total order, so which event fires next is the
// function of the schedule it always was, whichever tier holds it.
//
// The heap is laid out so that a sift branches only to leave its loop: which
// of two events fires first is a coin toss to a branch predictor, and those
// mispredictions, not depth, were the cost of a pop. The root sits at index
// heapRoot, so the children of node i are the aligned group 4(i−2) …
// 4(i−2)+3, the parent of node j is j/4 + 2, and — keys being 16 bytes in an
// array the allocator aligns to a host line — four siblings share one 64-byte
// line. Every key slot past the last event holds sentinelKey, which orders
// after any real key, and the arrays' length is a multiple of four, so a
// partly occupied sibling group runs the same four-way tournament as a full
// one; grow and heapPop keep that invariant, and an empty heap's root is the
// sentinel.
const (
	heapArity = 4
	heapRoot  = heapArity - 1
)

// The band is a ring of bandSlots slots, each 2^bandShift ps (16.384 ns)
// wide, covering the slots [now>>bandShift, now>>bandShift + bandSlots):
// 16.8 µs ahead of the clock, where 99.6 % of tx_stream_churn's pushes land
// (and 99.6 % of rx_fastpath's land within 1 µs). Every queued event is at or
// after now, so the window slides forward with the clock and each ring slot
// holds the events of exactly one absolute slot.
const (
	bandShift = 14
	bandSlots = 1 << 10
	bandWords = bandSlots / 64
)

var sentinelKey = key{at: math.MaxUint64, seq: math.MaxUint64}

// A bandNode is one band event in the engine's node arena, linked into its
// slot's list in (at, seq) order or, once fired, into the free list. Node 0 is
// the nil link and holds sentinelKey, so an empty band's head compares after
// every event.
type bandNode struct {
	key
	h    Handler
	next int32
}

// Engine is a single-threaded discrete-event simulator.
//
// Engines are not safe for concurrent use; all model code runs inside event
// callbacks on the goroutine that calls Run or Step. Distinct engines are
// fully independent: running many worlds on parallel goroutines (one engine
// per goroutine) is safe and is how the experiment harness fans sweeps out
// across cores.
type Engine struct {
	now Time
	seq uint64
	// 4-ary min-heap of n events in slots [heapRoot, heapRoot+n) of two
	// parallel arrays of equal length; keys past the last event are sentinels.
	keys    []key
	hs      []Handler
	n       int
	stopped bool
	nFired  uint64
	flushed uint64 // portion of nFired already added to firedTotal

	// The near band: nb events in nodes, each slot's list running from
	// head to tail (0 = empty); bit s of occ is set while slot s is occupied,
	// and bit w of occWords while word w of occ is nonzero. free heads the
	// list of fired nodes.
	nodes      []bandNode
	free, bmin int32 // bmin: the band's earliest event
	nb         int
	head, tail [bandSlots]int32
	occ        [bandWords]uint64
	occWords   uint64

	// horizon is the furthest deadline any Timer was ever armed for; a
	// drained Run ends there at the earliest (timer.go).
	horizon Time
	// dead counts queued events of disarmed timers; purge drops them once
	// they are half as many as the live ones.
	dead int
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
	e := &Engine{nodes: []bandNode{{key: sentinelKey}}}
	e.grow()
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful as a progress
// and runaway-detection metric in tests).
func (e *Engine) Fired() uint64 { return e.nFired }

// push queues ev in the heap when its slot is bandSlots or more past the
// clock's, and otherwise links it into its band slot's list in (at, seq)
// order. Events mostly arrive in order, so the tail is tried first.
func (e *Engine) push(ev event) {
	if ev.at>>bandShift-uint64(e.now)>>bandShift >= bandSlots {
		e.heapPush(ev)
		return
	}
	if e.free == 0 {
		e.growNodes()
	}
	nodes, i := e.nodes, e.free
	n := &nodes[i]
	e.free = n.next
	n.key, n.h, n.next = ev.key, ev.h, 0
	s := ev.at >> bandShift & (bandSlots - 1)
	switch h := e.head[s]; {
	case h == 0:
		e.head[s], e.tail[s] = i, i
		e.occ[s/64] |= 1 << (s % 64)
		e.occWords |= 1 << (s / 64)
	case lt(nodes[e.tail[s]].key, ev.key) != 0:
		nodes[e.tail[s]].next = i
		e.tail[s] = i
	case lt(ev.key, nodes[h].key) != 0:
		n.next = h
		e.head[s] = i
	default: // strictly between head and tail
		p := h
		for lt(nodes[nodes[p].next].key, ev.key) != 0 {
			p = nodes[p].next
		}
		n.next, nodes[p].next = nodes[p].next, i
	}
	if lt(ev.key, nodes[e.bmin].key) != 0 {
		e.bmin = i
	}
	e.nb++
}

// pop removes and returns the earliest event: the heap's root, or the band's
// earliest node, which pop unlinks from the head of its slot and frees. A
// freed node keeps no handler, so the arena retains nothing that fired. The
// caller must have checked Pending() > 0.
func (e *Engine) pop() event {
	b := e.bmin
	n := &e.nodes[b]
	if lt(n.key, e.keys[heapRoot]) == 0 {
		return e.heapPop()
	}
	ev := event{n.key, n.h}
	s := n.at >> bandShift & (bandSlots - 1)
	if e.head[s], e.bmin = n.next, n.next; n.next == 0 {
		e.bandVacate(s)
		e.bmin = e.bandFirst(s)
	}
	n.h, n.next = nil, e.free
	e.free = b
	e.nb--
	return ev
}

// first returns the earliest queued key, sentinelKey when nothing is queued.
func (e *Engine) first() key {
	b, r := e.nodes[e.bmin].key, e.keys[heapRoot]
	if lt(b, r) != 0 {
		return b
	}
	return r
}

// growNodes doubles the node arena and threads the new nodes onto the free
// list.
func (e *Engine) growNodes() {
	old := len(e.nodes)
	e.nodes = append(e.nodes, make([]bandNode, old)...)
	for i := old; i < len(e.nodes)-1; i++ {
		e.nodes[i].next = int32(i + 1)
	}
	e.free = int32(old)
}

// bandFirst returns the node heading the earliest occupied slot, 0 when the
// band is empty: the first occupied slot at or after ring slot p in ring
// order, found a word of the occupancy bitmap at a time. No queued event's
// slot may be earlier than p's.
func (e *Engine) bandFirst(p uint64) int32 {
	if e.occWords == 0 {
		return 0
	}
	w := p / 64
	if m := e.occ[w] >> (p % 64); m != 0 {
		return e.head[p+uint64(bits.TrailingZeros64(m))]
	}
	// A later word, or past the ring's end to its start, where the lowest
	// occupied slot is the earliest.
	ws := e.occWords &^ (2<<w - 1)
	if ws == 0 {
		ws = e.occWords
	}
	w = uint64(bits.TrailingZeros64(ws))
	return e.head[w*64+uint64(bits.TrailingZeros64(e.occ[w]))]
}

// bandVacate clears slot s's occupancy bits once its list is empty.
func (e *Engine) bandVacate(s uint64) {
	if e.occ[s/64] &^= 1 << (s % 64); e.occ[s/64] == 0 {
		e.occWords &^= 1 << (s / 64)
	}
}

// grow doubles the heap arrays and pads the new key slots with sentinels.
func (e *Engine) grow() {
	size := max(4*heapArity, 2*len(e.keys))
	keys := make([]key, size)
	for i := copy(keys, e.keys); i < size; i++ {
		keys[i] = sentinelKey
	}
	hs := make([]Handler, size)
	copy(hs, e.hs)
	e.keys, e.hs = keys, hs
}

// heapPush inserts ev, sifting it up to its heap position.
func (e *Engine) heapPush(ev event) {
	i := heapRoot + e.n
	if i >= len(e.keys) {
		e.grow()
	}
	e.n++
	keys, hs := e.keys, e.hs
	for i > heapRoot {
		parent := i/heapArity + 2
		if lt(ev.key, keys[parent]) == 0 {
			break
		}
		keys[i], hs[i] = keys[parent], hs[parent]
		i = parent
	}
	keys[i], hs[i] = ev.key, ev.h
}

// heapPop removes and returns the heap's root. The caller must have checked
// e.n > 0. The vacated tail slot gets the sentinel key back and its handler
// cleared, so the heap's spare capacity retains no references (it is reused
// by future pushes, not a root set).
func (e *Engine) heapPop() event {
	top := event{e.keys[heapRoot], e.hs[heapRoot]}
	e.n--
	tail := heapRoot + e.n
	last := event{e.keys[tail], e.hs[tail]}
	e.keys[tail], e.hs[tail] = sentinelKey, nil
	if e.n > 0 {
		e.siftDown(heapRoot, last)
	}
	return top
}

// siftDown places ev, notionally at node i, into its position in i's subtree.
func (e *Engine) siftDown(i int, ev event) {
	keys, hs := e.keys, e.hs
	end := heapRoot + e.n
	for {
		first := heapArity * (i - 2)
		if first >= end {
			break
		}
		// Smallest of the four siblings; slots past end hold sentinels.
		g := keys[first : first+heapArity : first+heapArity]
		a, b := int(lt(g[1], g[0])), 2+int(lt(g[3], g[2]))
		m := pick(lt(g[b], g[a]), a, b)
		if lt(g[m], ev.key) == 0 {
			break
		}
		m += first
		keys[i], hs[i] = keys[m], hs[m]
		i = m
	}
	keys[i], hs[i] = ev.key, ev.h
}

// purge drops every queued event of a timer that is disarmed now — a timer
// re-armed since its Stop keeps its covers — from both tiers: the band's slot
// lists are filtered in place, and the heap is compacted and rebuilt
// bottom-up. Only no-op events leave, and queued keys are distinct, so the
// order of everything else is untouched.
func (e *Engine) purge() {
	for w, word := range e.occ {
		for ; word != 0; word &= word - 1 {
			e.purgeSlot(uint64(w*64 + bits.TrailingZeros64(word)))
		}
	}
	e.bmin = e.bandFirst(uint64(e.now) >> bandShift & (bandSlots - 1))
	keys, hs := e.keys, e.hs
	end := heapRoot + e.n
	j := heapRoot
	for i := heapRoot; i < end; i++ {
		if disarmed(hs[i]) {
			continue
		}
		keys[j], hs[j] = keys[i], hs[i]
		j++
	}
	for i := j; i < end; i++ {
		keys[i], hs[i] = sentinelKey, nil
	}
	e.n, e.dead = j-heapRoot, 0
	for i := (j-1)/heapArity + 2; i >= heapRoot; i-- { // from the last event's parent
		e.siftDown(i, event{keys[i], hs[i]})
	}
}

// purgeSlot frees band slot s's disarmed timer events, relinking the rest.
func (e *Engine) purgeSlot(s uint64) {
	nodes := e.nodes
	var kept int32 // the last node kept, 0 before the first
	for i := e.head[s]; i != 0; {
		n := &nodes[i]
		next := n.next
		switch {
		case disarmed(n.h):
			n.h, n.next = nil, e.free
			e.free = i
			e.nb--
		case kept == 0:
			e.head[s] = i
			kept = i
		default:
			nodes[kept].next = i
			kept = i
		}
		i = next
	}
	if kept == 0 {
		e.head[s] = 0
		e.bandVacate(s)
		return
	}
	nodes[kept].next = 0
	e.tail[s] = kept
}

// disarmed reports whether h is a timer disarmed now, forgetting the events
// it has queued: the caller is dropping them.
func disarmed(h Handler) bool {
	t, ok := h.(*Timer)
	if ok && t.deadline.seq == 0 {
		t.queued = t.queued[:0]
		return true
	}
	return false
}

// AtHandler schedules h.Fire to run at absolute time t. Scheduling in the
// past panics: a causality violation is always a model bug.
func (e *Engine) AtHandler(t Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{key{uint64(t), e.seq}, h})
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
	if e.Pending() == 0 {
		return false
	}
	ev := e.pop()
	e.now = Time(ev.at)
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
// the final virtual time. A drained run ends no earlier than the horizon, the
// furthest deadline a Timer was ever armed for, exactly where it ended when
// every cancelled timeout stayed queued until its time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	if !e.stopped && e.now < e.horizon {
		e.now = e.horizon
	}
	e.flushFired()
	return e.now
}

// RunUntil executes events with timestamps not after deadline. The clock is
// left at min(deadline, time of last event). Events scheduled beyond the
// deadline stay queued. A Stop that leaves events at or before the deadline
// queued leaves the clock at the stopping event, so time never runs backwards
// when they fire.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped && e.due(deadline) {
		e.Step()
	}
	if e.now < deadline && !e.due(deadline) {
		e.now = deadline
	}
	e.flushFired()
	return e.now
}

// due reports whether an event at or before deadline is queued.
func (e *Engine) due(deadline Time) bool {
	at, ok := e.NextAt()
	return ok && at <= deadline
}

// Pending returns the number of queued events in both tiers, counting
// disarmed timers' events the engine has not purged yet.
func (e *Engine) Pending() int { return e.n + e.nb }

// NextAt returns the time of the earliest pending event, if any. Sharded
// uses it to fast-forward barriers over dead air.
func (e *Engine) NextAt() (Time, bool) {
	if e.Pending() == 0 {
		return 0, false
	}
	return Time(e.first().at), true
}

// AddFired credits n logical sub-events processed inside the currently
// running callback — the accounting half of batched dispatch: when one
// engine event drains a burst of n ring descriptors, the engine has done
// n+1 events' worth of simulated work for one heap pop, and events/s
// reporting (Fired, FiredTotal) must say so. Flushed with the ordinary
// fired-count delta at run and barrier exits. Bench-only: the batched drain
// bench/probe.go times is its one caller (see Sharded).
func (e *Engine) AddFired(n int) {
	if n > 0 {
		e.nFired += uint64(n)
	}
}
