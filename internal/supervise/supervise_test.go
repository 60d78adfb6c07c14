package supervise

import (
	"math/rand"
	"reflect"
	"testing"

	"norman/internal/sim"
)

const us = sim.Microsecond

// recorder is a sample function that logs when it ran.
type recorder struct {
	at   []sim.Duration
	stop int // return false on this sample (1-based); 0 = never
}

func (r *recorder) sample(now sim.Time) bool {
	r.at = append(r.at, sim.Duration(now))
	return len(r.at) != r.stop
}

func TestSamplerStaleTickSuppressed(t *testing.T) {
	eng := sim.NewEngine()
	var rec recorder
	s := NewSampler(eng, 10*us, rec.sample)
	s.Start(0)
	// Stop→Start inside one period: the tick armed at t=0 is still queued for
	// t=10 and must do nothing, or two chains would sample from here on.
	eng.At(sim.Time(5*us), func() {
		s.Stop()
		s.Start(0)
	})
	eng.RunUntil(sim.Time(40 * us))
	if want := []sim.Duration{15 * us, 25 * us, 35 * us}; !reflect.DeepEqual(rec.at, want) {
		t.Fatalf("samples at %v, want %v", rec.at, want)
	}
	s.Start(0) // idempotent while running: no second chain
	eng.RunUntil(sim.Time(60 * us))
	if len(rec.at) != 5 {
		t.Fatalf("Start on a running sampler changed the cadence: %v", rec.at)
	}
}

func TestSamplerUntilExpiry(t *testing.T) {
	eng := sim.NewEngine()
	var rec recorder
	s := NewSampler(eng, 10*us, rec.sample)
	s.Start(sim.Time(30 * us))
	eng.Run() // a bounded sampler lets a bare Run quiesce
	if want := []sim.Duration{10 * us, 20 * us, 30 * us}; !reflect.DeepEqual(rec.at, want) {
		t.Fatalf("samples at %v, want %v (a tick exactly at the horizon still samples)", rec.at, want)
	}
	if s.Running() || eng.Pending() != 0 {
		t.Fatalf("past the horizon: running=%v pending=%d, want stopped and drained", s.Running(), eng.Pending())
	}
}

func TestSamplerEndsWhenSampleSaysSo(t *testing.T) {
	eng := sim.NewEngine()
	rec := recorder{stop: 2}
	s := NewSampler(eng, 10*us, rec.sample)
	s.Start(0)
	eng.Run()
	if len(rec.at) != 2 || s.Running() {
		t.Fatalf("sample returned false on its 2nd call: %d samples, running=%v", len(rec.at), s.Running())
	}
}

func TestSamplerPauseResumeKeepsHorizon(t *testing.T) {
	eng := sim.NewEngine()
	var rec recorder
	s := NewSampler(eng, 10*us, rec.sample)
	s.Start(sim.Time(50 * us))
	eng.RunUntil(sim.Time(25 * us))

	s.Pause()
	if s.Running() {
		t.Fatal("paused sampler reports running")
	}
	eng.Run() // the drain Pause exists for: only the stale tick is queued
	if len(rec.at) != 2 {
		t.Fatalf("sampled while paused: %v", rec.at)
	}
	s.Resume()
	if !s.Running() {
		t.Fatal("Resume must re-arm a sampler that was running when paused")
	}
	eng.Run()
	if want := []sim.Duration{10 * us, 20 * us, 40 * us, 50 * us}; !reflect.DeepEqual(rec.at, want) {
		t.Fatalf("samples at %v, want %v (resumed at 30, horizon still 50)", rec.at, want)
	}
	if s.Running() {
		t.Fatal("resumed sampler outlived the horizon it was started with")
	}

	// Resume only undoes a Pause that actually stopped something.
	s.Pause()
	s.Resume()
	if s.Running() {
		t.Fatal("Pause/Resume armed a sampler that was not running")
	}
	s.Start(0)
	s.Pause()
	s.Stop() // e.g. a canary resolved during the drain
	s.Resume()
	if s.Running() {
		t.Fatal("Resume re-armed a sampler that was stopped while paused")
	}
}

func TestSamplerSteadyStateTickAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, 10*us, func(sim.Time) bool { return true })
	s.Start(0)
	eng.Step() // warm the event heap
	if a := testing.AllocsPerRun(200, func() { eng.Step() }); a != 0 {
		t.Fatalf("a steady-state tick allocates %.1f times, want 0", a)
	}
}

// TestStreakHysteresisProperty drives Streak with random hot/calm/neutral
// sequences under every (upAfter, downAfter) pair a supervisor uses and checks
// it against the definition: a move is reported exactly when an unbroken run
// of same-direction samples — unbroken by the other direction, by a neutral
// sample, or by an earlier report — reaches its bound, and never otherwise.
func TestStreakHysteresisProperty(t *testing.T) {
	bounds := []struct {
		name     string
		up, down int
	}{
		{"overload default escalate/clear", 2, 3},
		{"overload chaos-soak escalate/clear", 1, 2},
		{"health healthy: escalate only", 2, 0},
		{"health quarantined: probation only", 0, 6},
		{"health probation: relapse/restore", 1, 3},
		{"health chaos-soak probation", 1, 2},
		{"canary: breach only", 2, 0},
	}
	for _, b := range bounds {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			var k Streak
			run, runDir := 0, 0 // the reference: length and sign of the current run
			for i := 0; i < 20000; i++ {
				dir := rng.Intn(3) - 1
				if dir != runDir {
					run, runDir = 0, dir
				}
				run++
				want := 0
				switch {
				case dir > 0 && b.up > 0 && run >= b.up:
					want = +1
				case dir < 0 && b.down > 0 && run >= b.down:
					want = -1
				}
				if dir == 0 || want != 0 {
					run, runDir = 0, 0 // neutral and reported runs start over
				}
				got := k.Step(dir, b.up, b.down)
				if got != want {
					t.Fatalf("step %d dir %+d after a run of %d: Step = %+d, want %+d", i, dir, run, got, want)
				}
				if dir == 0 && (k.Hot != 0 || k.Calm != 0) {
					t.Fatalf("step %d: a neutral sample left runs hot=%d calm=%d", i, k.Hot, k.Calm)
				}
				if k.Hot != 0 && k.Calm != 0 {
					t.Fatalf("step %d: both runs live (hot=%d calm=%d)", i, k.Hot, k.Calm)
				}
			}
		})
	}
}

// TestStreakDeadBandHolds: a machine whose readings sit in its dead band feeds
// neutral samples, and no number of them ever moves it — from any run state.
func TestStreakDeadBandHolds(t *testing.T) {
	for _, k := range []Streak{{}, {Hot: 1}, {Calm: 2}} {
		for i := 0; i < 100; i++ {
			if got := k.Step(0, 2, 3); got != 0 {
				t.Fatalf("neutral sample %d reported %+d", i, got)
			}
		}
	}
}

func TestDelta(t *testing.T) {
	var d Delta
	for _, c := range []struct{ cur, want uint64 }{{5, 5}, {5, 0}, {12, 7}} {
		if got := d.Take(c.cur); got != c.want {
			t.Fatalf("Take(%d) = %d, want %d", c.cur, got, c.want)
		}
	}
}
