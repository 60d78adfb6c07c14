// Command normbench is the repository's benchmark (bench/README.md has the
// glossary). Three ways to run it:
//
//	normbench --workload W --seed N --seconds S --trace 0|1
//	    one workload, the way BENCHMARK.json's command is driven: S seconds
//	    of untraced repeats (--trace 0, end-to-end metrics) or the traced
//	    run and probes (--trace 1, per-layer metrics); the last line of
//	    standard output is the result as one JSON object.
//	normbench -seed N -out results.json
//	    every workload, untraced then traced; prints every metric by name
//	    with its unit and writes the set to results.json.
//	normbench -compare a.json b.json
//	    applies BENCHMARK.json's directions and bounds to two result sets;
//	    exits 1 on any "worse" or a larger failed share.
//
// Any correctness violation fails the run: non-zero exit, no metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"norman/bench"
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	out       string
	traceOut  string
	compare   bool
	benchJSON string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: flow ports, per-frame flow choice, Poisson arrivals, wire loss")
	flag.IntVar(&o.seconds, "seconds", 25, "measurement budget per workload and phase, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced end-to-end metrics, 1 = traced per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the complete result set to this file")
	flag.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "normbench-trace"), "directory for the traced run's spans.json (one subdirectory per workload)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: normbench -compare a.json b.json")
	flag.StringVar(&o.benchJSON, "bench", "BENCHMARK.json", "BENCHMARK.json to take directions and bounds from (with -compare)")
	flag.Parse()

	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "normbench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(args[0], args[1], o.benchJSON)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	budget := time.Duration(o.seconds) * time.Second
	spansDir := func(sp bench.Spec) string {
		if o.traceOut == "" {
			return ""
		}
		return filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d", sp.Name, o.seed))
	}

	if o.workload != "" {
		sp, ok := bench.SpecByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		var wr bench.WorkloadResult
		var err error
		if o.trace == 1 {
			wr, err = bench.Trace(sp, o.seed, budget, spansDir(sp))
		} else {
			wr, err = bench.Measure(sp, o.seed, budget)
		}
		if err != nil {
			return err
		}
		wr.Print(os.Stdout)
		line, err := bench.ContractLine(wr)
		if err != nil {
			return err
		}
		fmt.Println(line)
		return nil
	}

	file := bench.NewFile(o.seed, o.seconds)
	for _, sp := range bench.Workloads {
		wr, err := bench.Measure(sp, o.seed, budget)
		if err != nil {
			return err
		}
		tr, err := bench.Trace(sp, o.seed, budget, spansDir(sp))
		if err != nil {
			return err
		}
		if tr.Fingerprint != wr.Fingerprint {
			return fmt.Errorf("%s: traced run's model fingerprint %s differs from the untraced %s", sp.Name, tr.Fingerprint, wr.Fingerprint)
		}
		wr.PerLayer = tr.PerLayer
		wr.Print(os.Stdout)
		file.Workloads = append(file.Workloads, wr)
	}
	if o.out != "" {
		return file.Write(o.out)
	}
	return nil
}

func compareFiles(pathA, pathB, benchJSON string) error {
	bounds, err := bench.ReadBounds(benchJSON)
	if err != nil {
		return err
	}
	a, err := bench.ReadFile(pathA)
	if err != nil {
		return err
	}
	b, err := bench.ReadFile(pathB)
	if err != nil {
		return err
	}
	if !bench.Compare(os.Stdout, a, b, bounds) {
		return fmt.Errorf("%s is worse than %s", pathB, pathA)
	}
	return nil
}
