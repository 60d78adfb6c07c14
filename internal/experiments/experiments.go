// Package experiments contains one driver per experiment in the DESIGN.md
// index (E1–E16). Each driver builds its worlds, runs the workload in virtual
// time, and returns both a typed result (asserted by tests and benches) and
// a formatted table matching the claim it reproduces. cmd/kopibench and the
// top-level bench targets are thin wrappers over these drivers. E9 doubles
// as the observability showcase: RunE9Telemetry fills a Telemetry sink with
// the unified metrics registry, per-architecture pcaps and exemplar packet
// traces (see OBSERVABILITY.md).
//
// # Parallel execution
//
// Every point in a driver's sweep is an isolated world simulation, so the
// drivers fan points out over a bounded worker pool (see runner.go;
// configure with SetWorkers or NORMAN_WORKERS, default GOMAXPROCS). The
// harness contract that keeps results byte-identical at any pool width:
//
//   - a task must build its world(s) inside the task, never share one;
//   - all randomness comes from sim.NewRNG with seeds fixed by the task's
//     identity (component label + constants), never from global state;
//   - each task writes only its own pre-allocated result slot, and the
//     caller reads results only after Runner.Wait.
//
// TestParallelDeterminism enforces the contract end to end.
package experiments

import (
	"norman/internal/arch"
	"norman/internal/sim"
)

// silentLoss is the conservation column of E11 and E13–E16: frames offered
// that were neither delivered to an application nor counted under a typed NIC
// drop reason. NIC.Balance covers wire → ring; this covers ring → app too.
func silentLoss(w *arch.World, sent, delivered uint64) int64 {
	return int64(sent) - int64(delivered) - int64(w.NIC.RxDropped())
}

// balanced fails the experiment unless its world's NIC ledger holds. Every
// driver ends its world through it — balanced(w.Drain()), or
// balanced(w.NIC.Balance()) where a fault injector keeps the engine busy
// forever — so no table is printed over a NIC that lost a frame.
func balanced(err error) {
	if err != nil {
		panic("experiments: " + err.Error())
	}
}

// Scale compresses experiment durations for quick test runs: drivers
// multiply their simulated durations and sweep sizes by it. 1.0 is the full
// benchmark configuration.
type Scale float64

// durations scaled.
func (s Scale) d(base sim.Duration) sim.Duration {
	v := sim.Duration(float64(base) * float64(s))
	if v < sim.Microsecond {
		v = sim.Microsecond
	}
	return v
}

// count scales an iteration count, keeping at least lo.
func (s Scale) n(base, lo int) int {
	v := int(float64(base) * float64(s))
	if v < lo {
		v = lo
	}
	return v
}
