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
	"strings"
	"time"

	"runtime/pprof"

	"norman/internal/experiments"
	"norman/internal/sim"
	"norman/internal/stats"
)

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

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%s  %s\n", e.ID, e.Desc)
		}
		return
	}

	selected := experiments.All
	if *exp != "" {
		id := strings.ToUpper(*exp)
		selected = nil
		for _, e := range experiments.All {
			if e.ID == id {
				selected = append(selected, e)
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "kopibench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
	}

	for _, e := range selected {
		fmt.Printf("=== %s: %s (scale %.2f, workers %d)\n", e.ID, e.Desc, *scale, nWorkers)
		firedBefore := sim.FiredTotal()
		start := time.Now()
		var tbl *stats.Table
		if e.ID == "E9" && e9Telemetry != nil {
			_, tbl = experiments.RunE9Telemetry(experiments.Scale(*scale), e9Telemetry)
		} else {
			_, tbl = e.Run(experiments.Scale(*scale))
		}
		wall := time.Since(start)
		events := sim.FiredTotal() - firedBefore
		fmt.Println(tbl.String())
		fmt.Printf("--- %s done in %v (wall clock), %d events, %.1f Mevents/s\n\n",
			e.ID, wall.Round(time.Millisecond), events, float64(events)/wall.Seconds()/1e6)
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
