// Command kopibench regenerates the paper-reproduction experiments (E1–E16
// in DESIGN.md) and prints their tables.
//
// Usage:
//
//	kopibench                  # run every experiment at full scale, worlds fanned across all cores
//	kopibench -workers 4       # explicit worker-pool width (1 = sequential)
//	kopibench -e E3            # run one experiment
//	kopibench -scale 0.3       # compress durations/sweeps for a quick pass
//	kopibench -list            # list experiments
//	kopibench -metrics-out m.prom  # write the E9 telemetry registry (Prometheus text)
//	kopibench -pprof cpu.out   # write a CPU profile of the whole run
//
// Tables are byte-identical at any pool width. The repo's performance record
// is bench/ (BENCHMARK.json, normbench); the footer's wall clock and events/s
// are a convenience, not a baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"runtime/pprof"

	"norman/internal/experiments"
	"norman/internal/sim"
	"norman/internal/stats"
)

type runner func(experiments.Scale) *stats.Table

var registry = map[string]struct {
	desc string
	run  runner
}{
	"E1": {"dataplane throughput/latency/CPU by architecture",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE1(s); return t }},
	"E2": {"§2 management-scenario capability matrix",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE2(s); return t }},
	"E3": {"RX goodput vs concurrent connections (DDIO cliff)",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE3(s); return t }},
	"E4": {"overlay reload vs bitstream respin (online reconfiguration)",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE4(s); return t }},
	"E5": {"NIC SRAM exhaustion and the software slow path",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE5(s); return t }},
	"E6": {"per-user QoS: weighted fairness and game shaping",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE6(s); return t }},
	"E7": {"blocking vs polling CPU efficiency",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE7(s); return t }},
	"E8": {"owner-based filtering under spoofing + classifier ablation",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE8(s); return t }},
	"E9": {"degradation under injected faults (wire/NIC/overlay), seeded by NORMAN_FAULT_SEED",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE9Telemetry(s, e9Telemetry); return t }},
	"E10": {"control-plane crash recovery: dataplane survival, journal replay, reconciliation",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE10(s); return t }},
	"E11": {"overload control across the DDIO cliff: admission, backpressure, priority shedding",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE11(s); return t }},
	"E12": {"connection scale on the interposed datapath: DDIO cliff and the NIC SRAM wall",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE12(s); return t }},
	"E13": {"multi-tenant isolation: adversarial tenant vs victim p99, raw bypass vs governed KOPI",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE13(s); return t }},
	"E14": {"flow-cache fast path: hit rate, interpreter cycles and tenant partitions vs a short-flow flood",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE14(s); return t }},
	"E15": {"hardware fault tolerance: link flap, SRAM flip burst and trap storm vs health quarantine + slow-path failover, seeded by NORMAN_FAULT_SEED",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE15(s); return t }},
	"E16": {"live upgrade vs bitstream respin: staged A/B cutover, canary-gated commit and automatic rollback under the E14 victim workload",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE16(s); return t }},
}

// e9Telemetry is the observability sink E9 fills when -metrics-out is set
// (nil otherwise, which keeps the plain benchmark path allocation-free).
var e9Telemetry *experiments.Telemetry

func main() {
	exp := flag.String("e", "", "experiment id (E1..E16); empty = all")
	scale := flag.Float64("scale", 1.0, "duration/sweep scale factor (1.0 = full)")
	list := flag.Bool("list", false, "list experiments and exit")
	workersFlag := flag.Int("workers", 0, "worker-pool width each experiment's independent worlds fan across (0 = NORMAN_WORKERS, else GOMAXPROCS; 1 = sequential)")
	metricsOut := flag.String("metrics-out", "", "write the E9 run's telemetry registry (Prometheus text) to this file")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the experiment runs to this file")
	flag.Parse()

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kopibench: pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kopibench: pprof: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("    wrote %s\n", *pprofOut)
		}()
	}
	if *metricsOut != "" {
		e9Telemetry = experiments.NewTelemetry()
	}

	experiments.SetWorkers(*workersFlag)
	nWorkers := experiments.Workers()

	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Printf("%s  %s\n", id, registry[id].desc)
		}
		return
	}

	var selected []string
	if *exp == "" {
		selected = ids
	} else {
		id := strings.ToUpper(*exp)
		if _, ok := registry[id]; !ok {
			fmt.Fprintf(os.Stderr, "kopibench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		selected = []string{id}
	}

	for _, id := range selected {
		e := registry[id]
		fmt.Printf("=== %s: %s (scale %.2f, workers %d)\n", id, e.desc, *scale, nWorkers)
		firedBefore := sim.FiredTotal()
		start := time.Now()
		tbl := e.run(experiments.Scale(*scale))
		wall := time.Since(start)
		events := sim.FiredTotal() - firedBefore
		fmt.Println(tbl.String())
		fmt.Printf("--- %s done in %v (wall clock), %d events, %.1f Mevents/s\n\n",
			id, wall.Round(time.Millisecond), events, float64(events)/wall.Seconds()/1e6)
	}

	if *metricsOut != "" {
		body := e9Telemetry.Registry.RenderPrometheus()
		if body == "" {
			fmt.Fprintln(os.Stderr, "kopibench: -metrics-out set but no telemetry collected (E9 not selected?)")
		}
		if err := os.WriteFile(*metricsOut, []byte(body), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "kopibench: write %s: %v\n", *metricsOut, err)
			os.Exit(1)
		}
		fmt.Printf("    wrote %s (%d metrics, layers %v)\n",
			*metricsOut, e9Telemetry.Registry.Len(), e9Telemetry.Registry.Layers())
	}
}
