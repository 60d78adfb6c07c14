// Package supervise is the kernel every dataplane supervisor is built on: the
// overload governor, the health monitor and the upgrade canary all "sample a
// signal on the engine every T, count consecutive hot or calm samples, move a
// small state machine, act". The three parts of that sentence that do not
// depend on which supervisor is speaking live here, once — Sampler (the
// self-re-arming virtual-time tick), Streak (consecutive-sample hysteresis)
// and Delta (a counter read as a per-period signal) — so a supervisor is a
// signal definition plus an action (DESIGN.md, "Supervision kernel").
package supervise

import "norman/internal/sim"

// Sampler calls sample(now) on an engine every period until a horizon. It
// keeps the engine non-quiescent while armed, which is why it can be paused
// around a drain (Pause/Resume) without forgetting its horizon.
type Sampler struct {
	eng    *sim.Engine
	every  sim.Duration
	sample func(now sim.Time) (again bool)
	until  sim.Time
	// armed is the record the current Start re-arms; nil = not running. The
	// record is its own generation tag: Stop and Start never touch the engine's
	// queue, so a tick still in flight from an earlier Start finds itself no
	// longer armed and does nothing — without that, Stop→Start inside one
	// period would leave two live tick chains.
	armed  *tick
	paused bool
}

// tick is the engine handler of one Start: allocated once, re-armed every
// period, so a steady-state sample schedules without allocating.
type tick struct{ s *Sampler }

// NewSampler builds a stopped sampler. sample returns false to end the run
// from inside (a canary that resolved); it may also call Stop or Start.
func NewSampler(eng *sim.Engine, every sim.Duration, sample func(now sim.Time) (again bool)) *Sampler {
	return &Sampler{eng: eng, every: every, sample: sample}
}

// Start arms the sampler; the first sample is one period from now. until
// bounds it in virtual time (0 = until Stop) — experiments pass their horizon
// so the engine can drain to quiescence afterwards. Idempotent while running.
func (s *Sampler) Start(until sim.Time) {
	if s.armed != nil {
		return
	}
	s.until, s.paused = until, false
	s.armed = &tick{s}
	s.eng.AtHandler(s.eng.Now().Add(s.every), s.armed)
}

// Stop halts sampling; in-flight ticks become no-ops. Whatever state the
// sample function keeps is untouched.
func (s *Sampler) Stop() { s.armed, s.paused = nil, false }

// Running reports whether the sampler is armed.
func (s *Sampler) Running() bool { return s.armed != nil }

// Pause stops a running sampler and remembers that it was running; Resume
// re-arms it with the horizon it was started with. A sampler that was not
// running, or that was stopped or restarted in between, is left alone.
func (s *Sampler) Pause() {
	s.paused = s.armed != nil
	s.armed = nil
}

// Resume undoes Pause.
func (s *Sampler) Resume() {
	if s.paused {
		s.Start(s.until)
	}
}

// Fire runs one tick: stale-generation check, horizon check, sample, re-arm —
// in that order, so whatever the sample schedules is sequenced before the
// next tick at the same instant.
func (t *tick) Fire() {
	s := t.s
	if s.armed != t {
		return
	}
	now := s.eng.Now()
	if s.until != 0 && now.After(s.until) {
		s.armed = nil
		return
	}
	again := s.sample(now)
	if s.armed != t {
		return // the sample stopped or restarted its own sampler
	}
	if !again {
		s.armed = nil
		return
	}
	s.eng.AtHandler(now.Add(s.every), t)
}

// Streak is consecutive-sample hysteresis: it reports a move only after an
// unbroken run of samples asking for it, so a state machine stepped by it
// cannot oscillate at the sampling frequency. Hot and Calm are the current run
// lengths (at most one is nonzero).
type Streak struct{ Hot, Calm int }

// Step feeds one sample — dir > 0 hot, dir < 0 calm, 0 neutral — and returns
// +1 when the hot run reaches upAfter, -1 when the calm run reaches downAfter,
// else 0. A reported run starts over; a neutral sample resets both runs; a
// bound ≤ 0 never reports.
func (k *Streak) Step(dir, upAfter, downAfter int) int {
	switch {
	case dir > 0:
		k.Calm = 0
		k.Hot++
		if upAfter > 0 && k.Hot >= upAfter {
			k.Hot = 0
			return +1
		}
	case dir < 0:
		k.Hot = 0
		k.Calm++
		if downAfter > 0 && k.Calm >= downAfter {
			k.Calm = 0
			return -1
		}
	default:
		k.Hot, k.Calm = 0, 0
	}
	return 0
}

// Delta reads a monotonic counter as a per-sample signal.
type Delta struct{ prev uint64 }

// Take returns how far the counter moved since the previous Take.
func (d *Delta) Take(cur uint64) uint64 {
	delta := cur - d.prev
	d.prev = cur
	return delta
}
