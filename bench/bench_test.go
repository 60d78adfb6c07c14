package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestMain shortens the reference kernel: the self-test checks outputs, not
// host times.
func TestMain(m *testing.M) {
	refOps = 2_000
	os.Exit(m.Run())
}

// tiny returns a workload at self-test size: the same world, a few thousand
// frames (or two rounds of transfers).
func tiny(t *testing.T, name string) Spec {
	t.Helper()
	sp, ok := SpecByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return sp.Scaled(1.0 / 32)
}

// TestWorkloadsTiny runs every workload at a tiny fixed size through all
// its correctness checks and pins the seed contract: the same seed gives
// the same model fingerprint, another seed a different one over the same
// amount of work.
func TestWorkloadsTiny(t *testing.T) {
	for _, full := range Workloads {
		sp := tiny(t, full.Name)
		t.Run(sp.Name, func(t *testing.T) {
			a, _, err := runOnce(sp, 1, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := runOnce(sp, 1, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.model != b.model {
				t.Errorf("seed 1 twice: models differ\n%+v\n%+v", a.model, b.model)
			}
			c, _, err := runOnce(sp, 2, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.model.Fingerprint == a.model.Fingerprint {
				t.Errorf("seeds 1 and 2 share fingerprint %x", a.model.Fingerprint)
			}
			if sp.Frames > 0 && (a.model.Frames != uint64(sp.Frames) || c.model.Frames != a.model.Frames) {
				t.Errorf("frames: seed 1 %d, seed 2 %d, size %d", a.model.Frames, c.model.Frames, sp.Frames)
			}
			if sp.Transfers > 0 && (a.model.Ops != uint64(sp.Transfers) || c.model.Ops != a.model.Ops) {
				t.Errorf("transfers: seed 1 %d, seed 2 %d, size %d", a.model.Ops, c.model.Ops, sp.Transfers)
			}
			// At this size rx_fastpath and rx_slowpath's warm-up quarter is too
			// short to touch every ring slot once, so cold DDIO misses still
			// cost them typed FIFO drops; the full size has none.
			if cold := sp.Name == "rx_fastpath" || sp.Name == "rx_slowpath"; !cold && a.model.FailedOps != 0 {
				t.Errorf("%d of %d operations failed", a.model.FailedOps, a.model.Ops)
			}
			for _, v := range []float64{a.model.GoodputGbps, a.model.LatP50us, a.model.LatP99us, a.model.DeliveredPct, a.model.CPUCores} {
				if !(v > 0) {
					t.Errorf("a modeled end-to-end metric is not positive: %+v", a.model)
				}
			}
		})
	}
}

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string                              `json:"command"`
	Paths      []string                              `json:"paths"`
	RunSeconds int                                   `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }          `json:"workloads"`
	EndToEnd   []Bound                               `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// manifestJSON mirrors manifest.json, the extended record beside it.
type manifestJSON struct {
	Claim     *string `json:"claim"`
	Workloads []struct {
		Name      string `json:"name"`
		Loop      string `json:"loop"`
		Frames    int    `json:"frames_per_repeat"`
		Transfers int    `json:"transfers_per_repeat"`
	} `json:"workloads"`
	Metrics []struct{ Name, Unit, Layer string } `json:"metrics"`
}

func readJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestNamesMatchBenchmarkJSON is the drift gate: every workload and metric
// the program emits is named, with the same unit, in BENCHMARK.json and in
// manifest.json, and nothing else is; sizes in manifest.json are the sizes
// the program runs.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	var bj benchmarkJSON
	readJSON(t, "../BENCHMARK.json", &bj)
	var mf manifestJSON
	data, err := os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.Workloads) != len(Workloads) || len(mf.Workloads) != len(Workloads) {
		t.Fatalf("workloads: program %d, BENCHMARK.json %d, manifest.json %d", len(Workloads), len(bj.Workloads), len(mf.Workloads))
	}
	for i, sp := range Workloads {
		if bj.Workloads[i].Name != sp.Name || bj.Workloads[i].Why != sp.Why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), program has %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, sp.Name, sp.Why)
		}
		if !name.MatchString(sp.Name) || len(sp.Why) > 200 || strings.Contains(sp.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", sp.Name)
		}
		m := mf.Workloads[i]
		if m.Name != sp.Name || m.Loop != sp.Loop || m.Frames != sp.Frames || m.Transfers != sp.Transfers {
			t.Errorf("manifest.json workload %d is %+v, program has %s %s frames=%d transfers=%d", i, m, sp.Name, sp.Loop, sp.Frames, sp.Transfers)
		}
	}

	if mf.Claim != nil {
		t.Errorf("manifest.json claims %q; the benchmark's own change claims nothing", *mf.Claim)
	}
	all := append(append([]MetricDef(nil), EndToEnd...), PerLayer...)
	if len(mf.Metrics) != len(all) {
		t.Errorf("manifest.json lists %d metrics, program emits %d", len(mf.Metrics), len(all))
	}
	seen := map[string]bool{}
	for i, d := range all {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) is outside the contract's alphabet", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q emitted twice", d.Name)
		}
		seen[d.Name] = true
		if i < len(mf.Metrics) && (mf.Metrics[i].Name != d.Name || mf.Metrics[i].Unit != d.Unit || mf.Metrics[i].Layer == "") {
			t.Errorf("manifest.json metric %d is %+v, program has %+v", i, mf.Metrics[i], d)
		}
	}
	if len(bj.EndToEnd) != len(EndToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json %d, program %d", len(bj.EndToEnd), len(EndToEnd))
	}
	for i, d := range EndToEnd {
		b := bj.EndToEnd[i]
		if b.Name != d.Name || b.Unit != d.Unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], program %s [%s]", i, b.Name, b.Unit, d.Name, d.Unit)
		}
		if (b.Better != "lower" && b.Better != "higher") || b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("end_to_end %s: better %q bound %v", b.Name, b.Better, b.Bound)
		}
	}
	if len(bj.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("per_layer: BENCHMARK.json %d, program %d (cap 128)", len(bj.PerLayer), len(PerLayer))
	}
	for i, d := range PerLayer {
		if b := bj.PerLayer[i]; b.Name != d.Name || b.Unit != d.Unit || (b.Better != "lower" && b.Better != "higher") {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, b, d)
		}
	}
}

// TestTraceTiny runs the whole traced pipeline — plain, profiled and traced
// repeats, probes — on the two workloads that between them reach every
// layer, and checks that each per-layer metric is emitted, the layer
// separation holds and the stages add up.
func TestTraceTiny(t *testing.T) {
	dir := t.TempDir()
	results := map[string]WorkloadResult{}
	for _, n := range []string{"rx_slowpath", "tx_stream_churn"} {
		wr, err := Trace(tiny(t, n), 1, 10*time.Millisecond, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(wr.PerLayer) != len(PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d defined", n, len(wr.PerLayer), len(PerLayer))
		}
		for _, d := range PerLayer {
			if _, ok := wr.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", n, d.Name)
			}
		}
		if r := wr.PerLayer["stage.sum_residual_pct"]; r > 2 {
			t.Errorf("%s: stages miss the end-to-end latency by %.2f%%", n, r)
		}
		line, err := ContractLine(wr)
		if err != nil || !strings.HasPrefix(line, `{"correct":true,"attempted":`) {
			t.Errorf("%s: contract line %q, err %v", n, line, err)
		}
		results[n] = wr
	}
	if _, err := os.Stat(dir + "/spans.json"); err != nil {
		t.Errorf("spans.json not written: %v", err)
	}
	rx, tx := results["rx_slowpath"].PerLayer, results["tx_stream_churn"].PerLayer
	if reached := 1 - rx["nic.drop_fifo"]/rx["nic.rx_frames"]; rx["overlay.runs_per_frame"] < 0.99*reached {
		t.Errorf("rx_slowpath ran the overlay on %.3f of frames, %.3f reached the pipeline", rx["overlay.runs_per_frame"], reached)
	}
	if rx["stage.rx.pipeline_to_ring_ns"] <= 0 || tx["stage.tx.ring_to_pipeline_ns"] <= 0 {
		t.Error("stage decomposition is empty")
	}
	for _, m := range []string{"transport.segments_sent", "nic.tx_frames", "sniff.matched", "probe.qos.wfq_enq_deq_ns", "span.install_rule_us"} {
		if rx[m] != 0 || tx[m] <= 0 {
			t.Errorf("%s: rx_slowpath %v, tx_stream_churn %v; want zero and non-zero", m, rx[m], tx[m])
		}
	}
}

// TestCompareSelf checks -compare's verdicts: a result against itself is all
// "same"; a slower copy is "worse"; a noisy but equal one is "unresolved".
func TestCompareSelf(t *testing.T) {
	wr, err := Measure(tiny(t, "rx_fastpath"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wr.EndToEnd["host_ns_per_frame"].N != MinRepeats {
		t.Errorf("a zero budget made %d repeats, want %d", wr.EndToEnd["host_ns_per_frame"].N, MinRepeats)
	}
	bounds, err := ReadBounds("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	a := File{Workloads: []WorkloadResult{wr}}
	var buf bytes.Buffer
	if !Compare(&buf, a, a, bounds) {
		t.Errorf("a result compared with itself is not acceptable:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "worse") || strings.Contains(buf.String(), "better") {
		t.Errorf("self-compare verdicts are not all same/unresolved:\n%s", buf.String())
	}

	bd := Bound{Name: "x", Better: "lower", Bound: 0.10}
	base := Stat{Median: 100, Min: 98, Max: 103, Q1: 99, Q3: 101, N: 5}
	for _, c := range []struct {
		b    Stat
		want string
	}{
		{base, "same"},
		{Stat{Median: 120, Min: 118, Max: 123, Q1: 119, Q3: 121, N: 5}, "worse"},
		{Stat{Median: 90, Min: 88, Max: 92, Q1: 89, Q3: 91, N: 5}, "better"},
		{Stat{Median: 101, Min: 80, Max: 125, Q1: 90, Q3: 112, N: 5}, "unresolved"},
	} {
		if got := verdict(base, c.b, bd); got != c.want {
			t.Errorf("verdict(%+v) = %s, want %s", c.b, got, c.want)
		}
	}
	if got := verdict(base, Stat{Median: 80, Min: 79, Max: 81, Q1: 80, Q3: 80, N: 5}, Bound{Better: "higher", Bound: 0.10}); got != "worse" {
		t.Errorf("higher-is-better metric falling 20%%: %s, want worse", got)
	}
}

// TestFoldProfile checks the in-tree pprof reader on a real CPU profile of
// this test and the bucket rule on hand-written stacks.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 60*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x
	buckets := map[string]int64{}
	total, err := foldProfile(buf.Bytes(), buckets)
	if err != nil {
		t.Fatal(err)
	}
	if total > 0 && buckets["bench"] == 0 {
		t.Errorf("spin loop in norman/bench not attributed to bench: %v", buckets)
	}

	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "norman/internal/nic.(*NIC).rxAdmit.func1", "norman/internal/sim.(*Engine).Step"}, "nic"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "norman/internal/packet.NewUDP", "norman/bench.(*rxWorld).tick"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "norman/internal/packet.NewUDP"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"norman/bench/cmd/normbench.main"}, "bench"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
