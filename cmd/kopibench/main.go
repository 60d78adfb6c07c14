// Command kopibench regenerates the paper-reproduction experiments (E1–E16
// in DESIGN.md) and prints their tables.
//
// Usage:
//
//	kopibench                  # run every experiment at full scale, sequentially
//	kopibench -parallel        # fan each experiment's worlds across all cores
//	kopibench -workers 4       # explicit worker count (implies -parallel)
//	kopibench -e E3            # run one experiment
//	kopibench -scale 0.3       # compress durations/sweeps for a quick pass
//	kopibench -shards 8        # engine shards for E12 (the table is shard-invariant)
//	kopibench -json            # also write BENCH_E*.json + BENCH_ENGINE.json
//	kopibench -outdir results  # where -json baselines land (default .)
//	kopibench -list            # list experiments
//	kopibench -metrics-out m.prom  # write the E9 telemetry registry (Prometheus text)
//	kopibench -pprof cpu.out   # write a CPU profile of the whole run
//
// The -json baselines are the repo's perf trajectory: each BENCH_E*.json
// records the experiment's wall-clock and simulated-event throughput at a
// given worker count, and BENCH_ENGINE.json records the raw event-engine
// dispatch rate and allocations per event. Future performance work is
// measured against these files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"runtime/pprof"

	"norman/internal/experiments"
	"norman/internal/mem"
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
	"E12": {"sharded within-world engine: 10k-1M connections, shard-count-invariant tables",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE12(s, e12Shards); return t }},
	"E13": {"multi-tenant isolation: adversarial tenant vs victim p99, raw bypass vs governed KOPI",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE13(s); return t }},
	"E14": {"flow-cache fast path: hit rate, interpreter cycles and tenant partitions vs a short-flow flood",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE14(s); return t }},
	"E15": {"hardware fault tolerance: link flap, SRAM flip burst and trap storm vs health quarantine + slow-path failover, seeded by NORMAN_FAULT_SEED",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE15(s); return t }},
	"E16": {"live upgrade vs bitstream respin: staged A/B cutover, canary-gated commit and automatic rollback under the E14 victim workload",
		func(s experiments.Scale) *stats.Table { _, t := experiments.RunE16(s); return t }},
}

// e12Shards is the -shards flag: how many engine shards E12 spreads its world
// over. The table is byte-identical at any value.
var e12Shards = 1

// e9Telemetry is the observability sink E9 fills when -metrics-out is set
// (nil otherwise, which keeps the plain benchmark path allocation-free).
var e9Telemetry *experiments.Telemetry

// benchRecord is one experiment's perf baseline, serialized to
// BENCH_<id>.json when -json is set.
type benchRecord struct {
	ID           string  `json:"id"`
	Desc         string  `json:"desc"`
	Scale        float64 `json:"scale"`
	Workers      int     `json:"workers"`
	WallMillis   float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// engineRecord is the raw event-engine baseline (BENCH_ENGINE.json): the
// budget every simulated nanosecond is paid out of.
type engineRecord struct {
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`

	// Steady-depth pop+push with datapath-like horizons, at the heap depth
	// the rx workloads hold and the one tx_stream_churn holds.
	ChurnNsDepth10   float64 `json:"churn_ns_per_event_depth10"`
	ChurnNsDepth1000 float64 `json:"churn_ns_per_event_depth1000"`

	// Sharded batched ring-drain baseline: aggregate dataplane events/s
	// when 8 lockstep shards each drain descriptor bursts instead of firing
	// one heap event per packet. Speedup is against events_per_sec above.
	ShardedShards       int     `json:"sharded_shards"`
	ShardedBatch        int     `json:"sharded_batch"`
	ShardedNsPerEvent   float64 `json:"sharded_ns_per_event"`
	ShardedEventsPerSec float64 `json:"sharded_events_per_sec"`
	ShardedSpeedup      float64 `json:"sharded_speedup"`
}

func main() {
	exp := flag.String("e", "", "experiment id (E1..E16); empty = all")
	scale := flag.Float64("scale", 1.0, "duration/sweep scale factor (1.0 = full)")
	list := flag.Bool("list", false, "list experiments and exit")
	parallel := flag.Bool("parallel", false, "fan each experiment's independent worlds across all cores")
	workersFlag := flag.Int("workers", 0, "worker-pool width (implies -parallel; 0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "write BENCH_<id>.json baselines (wall clock, events/sec) and BENCH_ENGINE.json")
	outdir := flag.String("outdir", ".", "directory -json baselines are written to")
	metricsOut := flag.String("metrics-out", "", "write the E9 run's telemetry registry (Prometheus text) to this file")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the experiment runs to this file")
	shards := flag.Int("shards", 1, "engine shards for E12 (the table is invariant across shard counts)")
	flag.Parse()
	e12Shards = *shards

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

	// Sequential by default so historical numbers stay comparable; the
	// pool is opt-in per run. NORMAN_WORKERS is honored only in parallel
	// mode (SetWorkers(0) defers to it).
	nWorkers := 1
	if *parallel || *workersFlag > 0 {
		experiments.SetWorkers(*workersFlag)
		nWorkers = experiments.Workers()
	} else {
		experiments.SetWorkers(1)
	}

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

	if *jsonOut {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "kopibench: outdir: %v\n", err)
			os.Exit(1)
		}
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

		if *jsonOut {
			rec := benchRecord{
				ID: id, Desc: e.desc, Scale: *scale, Workers: nWorkers,
				WallMillis:   float64(wall.Nanoseconds()) / 1e6,
				Events:       events,
				EventsPerSec: float64(events) / wall.Seconds(),
			}
			writeJSON(filepath.Join(*outdir, "BENCH_"+id+".json"), rec)
		}
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

	if *jsonOut {
		fmt.Printf("=== engine: event dispatch microbenchmark\n")
		rec := engineBaseline()
		fmt.Printf("--- %.1f ns/event, %.1f Mevents/s, %d allocs/op\n",
			rec.NsPerEvent, rec.EventsPerSec/1e6, rec.AllocsPerOp)
		rec.ChurnNsDepth10, rec.ChurnNsDepth1000 = churnBaseline(10), churnBaseline(1000)
		fmt.Printf("--- steady-depth churn: %.1f ns/event at depth 10, %.1f at depth 1000\n",
			rec.ChurnNsDepth10, rec.ChurnNsDepth1000)
		fmt.Printf("=== engine: sharded batched ring-drain microbenchmark (%d shards, batch %d)\n",
			shardedBenchShards, shardedBenchBatch)
		rec.ShardedShards = shardedBenchShards
		rec.ShardedBatch = shardedBenchBatch
		rec.ShardedNsPerEvent = shardedBaseline()
		rec.ShardedEventsPerSec = 1e9 / rec.ShardedNsPerEvent
		rec.ShardedSpeedup = rec.ShardedEventsPerSec / rec.EventsPerSec
		fmt.Printf("--- %.1f ns/event, %.1f Mevents/s aggregate, %.1fx single-loop dispatch\n",
			rec.ShardedNsPerEvent, rec.ShardedEventsPerSec/1e6, rec.ShardedSpeedup)
		writeJSON(filepath.Join(*outdir, "BENCH_ENGINE.json"), rec)
	}
}

// Sharded batched-drain baseline geometry: 8 lockstep shards, each draining
// 256-descriptor bursts from its own ring into flyweight records (a 4 KB
// scratch stays L1-resident; larger bursts spill and run slower).
const (
	shardedBenchShards = 8
	shardedBenchBatch  = 256
)

// shardedBaseline measures the aggregate dataplane event rate of the
// sharded engine's batched path: every shard runs a self-sustaining drain
// loop — pop a burst, update the flyweight slab per descriptor, recycle the
// burst — with the engine's fired counter credited per descriptor
// (sim.Engine.AddFired), the same accounting the QueueGroup receive path
// uses. Returns wall nanoseconds per dataplane event.
func shardedBaseline() float64 {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		quota := b.N/shardedBenchShards + 1
		s := sim.NewSharded(shardedBenchShards, shardedBenchShards, 2*sim.Microsecond)
		for sh := 0; sh < shardedBenchShards; sh++ {
			eng := s.Engine(sh)
			ring := mem.NewBurstRing(8*shardedBenchBatch, 0)
			slab := mem.NewConnSlab(1024, 0)
			scratch := make([]mem.PktRef, shardedBenchBatch)
			for i := 0; i < shardedBenchBatch; i++ {
				ring.Push(mem.PktRef{Conn: uint32(i % 1024), Len: 300})
			}
			done := 0
			var drain func()
			drain = func() {
				m := ring.PopBurst(scratch)
				for i := range scratch[:m] {
					d := &scratch[i]
					slab.RxPkts[d.Conn]++
					slab.RxBytes[d.Conn] += uint64(d.Len)
				}
				ring.PushBurst(scratch[:m])
				eng.AddFired(m - 1)
				done += m
				if done < quota {
					eng.After(100*sim.Nanosecond, drain)
				}
			}
			eng.At(0, drain)
		}
		s.Run()
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// engineBaseline measures raw event dispatch in-process (the same loop as
// BenchmarkEngineEventThroughput in internal/sim).
func engineBaseline() engineRecord {
	// Pin to one core for a stable single-threaded dispatch number.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine()
		var fire func()
		n := 0
		fire = func() {
			n++
			if n < b.N {
				e.After(sim.Nanosecond, fire)
			}
		}
		e.At(0, fire)
		e.Run()
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return engineRecord{
		NsPerEvent:   ns,
		EventsPerSec: 1e9 / ns,
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
	}
}

// churn is the steady-depth load of BenchmarkEngineHeapChurn in internal/sim:
// every fired event schedules one successor at a horizon drawn up front from
// the datapath's latencies (timing.Default's LLC hit, poll iteration,
// cacheline transfer, MMIO write, DMA latency, NIC pipeline, wire latency)
// and a far retransmission timeout.
type churn struct {
	eng      *sim.Engine
	horizons [1 << 16]sim.Duration
	next     int
}

func (c *churn) Fire() {
	c.next++
	c.eng.AtHandler(c.eng.Now().Add(c.horizons[c.next%len(c.horizons)]), c)
}

// churnBaseline measures one pop plus one push with the heap held at depth.
func churnBaseline(depth int) float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	from := [...]sim.Duration{
		15 * sim.Nanosecond, 20 * sim.Nanosecond, 60 * sim.Nanosecond, 100 * sim.Nanosecond,
		450 * sim.Nanosecond, 500 * sim.Nanosecond, 2 * sim.Microsecond, 10 * sim.Millisecond,
	}
	r := testing.Benchmark(func(b *testing.B) {
		c := &churn{eng: sim.NewEngine()}
		g := sim.NewRNG(1, "bench")
		for i := range c.horizons {
			c.horizons[i] = from[g.Intn(len(from))]
		}
		for i := 0; i < depth; i++ {
			c.Fire()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.eng.Step()
		}
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func writeJSON(path string, v interface{}) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "kopibench: marshal %s: %v\n", path, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "kopibench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("    wrote %s\n", path)
}
