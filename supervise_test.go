package norman_test

import (
	"testing"

	"norman"
	"norman/internal/health"
	"norman/internal/overload"
	"norman/internal/sim"
)

// TestSupervisorHorizonSurvivesRun: a watchdog started with a horizon (what
// every experiment and the chaos soak do) must come back from Run's drain
// with that horizon, not unbounded — otherwise it samples forever and a later
// bare Eng.Run() never quiesces.
func TestSupervisorHorizonSurvivesRun(t *testing.T) {
	sys := norman.New(norman.KOPI)
	gov := sys.EnableOverload(overload.Config{SampleEvery: 10 * sim.Microsecond})
	hm := sys.EnableHealth(health.Config{SampleEvery: 10 * sim.Microsecond})
	const horizon = 100 * sim.Microsecond
	gov.Start(sim.Time(horizon))
	hm.Start(sim.Time(horizon))

	sys.RunFor(50 * sim.Microsecond)
	sys.Run()
	if !gov.Running() || !hm.Running() {
		t.Fatalf("Run must resume the samplers it paused: governor %v, health %v", gov.Running(), hm.Running())
	}

	sys.RunFor(100 * sim.Microsecond) // past the horizon
	if gov.Running() || hm.Running() {
		t.Fatalf("samplers outlived their horizon across Run: governor %v, health %v", gov.Running(), hm.Running())
	}
	samples := hm.Samples
	sys.RunFor(100 * sim.Microsecond)
	if hm.Samples != samples {
		t.Fatalf("health monitor kept sampling past its horizon: %d -> %d", samples, hm.Samples)
	}
	if n := sys.World().Eng.Pending(); n != 0 {
		t.Fatalf("%d events still pending: the engine would never quiesce", n)
	}
}
