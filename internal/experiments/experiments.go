// Package experiments contains one driver per experiment in the DESIGN.md
// index (E1–E16). Each driver builds its worlds, runs the workload in virtual
// time, and returns both a typed result (asserted by tests and benches) and
// a formatted table matching the claim it reproduces. All lists the drivers
// once, in index order; cmd/kopibench, the top-level benchmark and the
// width-determinism and golden-table test all read it. E9 doubles
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
// TestExperimentTables enforces the contract end to end: every entry of All
// renders the same table at widths 1 and 8.
package experiments

import (
	"norman/internal/arch"
	"norman/internal/sim"
	"norman/internal/stats"
)

// Experiment is one entry of the index: its ID (E1…), a one-line
// description, and its driver with the typed result boxed.
type Experiment struct {
	ID, Desc string
	Run      func(Scale) (any, *stats.Table)
}

// All is every experiment in index order.
var All = []Experiment{
	{"E1", "dataplane throughput/latency/CPU by architecture", boxed(RunE1)},
	{"E2", "§2 management-scenario capability matrix", boxed(RunE2)},
	{"E3", "RX goodput vs concurrent connections (DDIO cliff)", boxed(RunE3)},
	{"E4", "overlay reload vs bitstream respin (online reconfiguration)", boxed(RunE4)},
	{"E5", "NIC SRAM exhaustion and the software slow path", boxed(RunE5)},
	{"E6", "per-user QoS: weighted fairness and game shaping", boxed(RunE6)},
	{"E7", "blocking vs polling CPU efficiency", boxed(RunE7)},
	{"E8", "owner-based filtering under spoofing + classifier ablation", boxed(RunE8)},
	{"E9", "degradation under injected faults (wire/NIC/overlay), seeded by NORMAN_FAULT_SEED", boxed(RunE9)},
	{"E10", "control-plane crash recovery: dataplane survival, journal replay, reconciliation", boxed(RunE10)},
	{"E11", "overload control across the DDIO cliff: admission, backpressure, priority shedding", boxed(RunE11)},
	{"E12", "connection scale on the interposed datapath: DDIO cliff and the NIC SRAM wall", boxed(RunE12)},
	{"E13", "multi-tenant isolation: adversarial tenant vs victim p99, raw bypass vs governed KOPI", boxed(RunE13)},
	{"E14", "flow-cache fast path: hit rate, interpreter cycles and tenant partitions vs a short-flow flood", boxed(RunE14)},
	{"E15", "hardware fault tolerance: link flap, SRAM flip burst and trap storm vs health quarantine + slow-path failover, seeded by NORMAN_FAULT_SEED", boxed(RunE15)},
	{"E16", "live upgrade vs bitstream respin: staged A/B cutover, canary-gated commit and automatic rollback under the E14 victim workload", boxed(RunE16)},
}

// boxed adapts a driver to Experiment.Run.
func boxed[T any](run func(Scale) (T, *stats.Table)) func(Scale) (any, *stats.Table) {
	return func(s Scale) (any, *stats.Table) { return run(s) }
}

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
