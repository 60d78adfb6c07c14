package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"norman/internal/telemetry"
)

// traceDepth is the packet-lifecycle tracer's span depth on the traced
// repeat: the last 4096 stamped packets keep their journeys.
const traceDepth = 4096

// profBuckets are the prof.*_pct metrics: CPU-profile shares by package
// (the innermost Norman frame of each sample), with the allocator and the
// collector carved out.
var profBuckets = []string{
	"sim", "nic", "overlay", "cache", "mem", "packet", "arch", "kernel",
	"transport", "qos", "filter", "bench", "runtime_malloc", "runtime_gc",
}

// Trace produces a workload's per-layer metrics. It spends the budget on
// four things, in this order:
//
//  1. plain repeats (untraced, unprofiled) — the baseline for
//     telemetry.trace_overhead_pct and sim.events_per_s;
//  2. profiled repeats — a runtime/pprof CPU profile of each run phase,
//     folded by package into the prof.* shares;
//  3. one traced repeat — harness spans around every call into a layer and
//     the world's own telemetry.Tracer, from which span.* and stage.* come;
//  4. probes — each layer's public functions timed in isolation with this
//     workload's inputs.
//
// Every repeat's modeled outputs must equal the first's: profiling and
// tracing are passive. Spans are kept in memory and written to
// traceOut/spans.json at the end when traceOut is set.
func Trace(sp Spec, seed int64, budget time.Duration, traceOut string) (WorkloadResult, error) {
	var wr WorkloadResult
	out := make(map[string]float64, len(PerLayer))
	for _, d := range PerLayer {
		out[d.Name] = 0
	}
	start := time.Now()
	spent := func(frac float64) bool { return time.Since(start) >= time.Duration(frac*float64(budget)) }

	var base repeat
	check := func(r repeat, what string) error {
		if r.model != base.model {
			return fmt.Errorf("%s: %s repeat changed the model: %+v vs %+v", sp.Name, what, base.model, r.model)
		}
		return nil
	}

	// 1. Plain repeats.
	var plains []repeat
	for len(plains) < 2 || !spent(0.15) {
		r, _, err := runOnce(sp, seed, nil, false, nil)
		if err != nil {
			return wr, err
		}
		if len(plains) == 0 {
			base = r
		} else if err := check(r, "plain"); err != nil {
			return wr, err
		}
		plains = append(plains, r)
	}
	for k, v := range base.counts {
		out[k] = v
	}
	plain := medianOf(plains, repeat.nsPerFrame)
	out["host.raw_ns_per_frame"] = plain
	out["host.reference_ns_per_op"] = medianOf(plains, func(r repeat) float64 { return r.refNs })
	out["sim.events_per_s"] = medianOf(plains, func(r repeat) float64 {
		return r.counts["sim.events_per_frame"] * float64(r.model.Frames) / r.runS
	})
	out["host_gc_cycles"] = medianOf(plains, func(r repeat) float64 { return float64(r.gcCycles) })

	// 2. Profiled repeats.
	buckets := map[string]int64{}
	var profTotal int64
	for n := 0; n < 1 || !spent(0.50); n++ {
		var buf bytes.Buffer
		r, _, err := runOnce(sp, seed, nil, false, &buf)
		if err != nil {
			return wr, err
		}
		if err := check(r, "profiled"); err != nil {
			return wr, err
		}
		t, err := foldProfile(buf.Bytes(), buckets)
		if err != nil {
			return wr, err
		}
		profTotal += t
	}
	if profTotal > 0 {
		for _, b := range profBuckets {
			out["prof."+b+"_pct"] = 100 * float64(buckets[b]) / float64(profTotal)
		}
	}

	// 3. The traced repeat.
	rec := newSpanRec(fmt.Sprintf("%s/seed%d/traced", sp.Name, seed))
	root := rec.begin("repeat")
	r, w, err := runOnce(sp, seed, rec, true, nil)
	rec.end(root)
	if err != nil {
		return wr, err
	}
	if err := check(r, "traced"); err != nil {
		return wr, err
	}
	out["telemetry.trace_overhead_pct"] = 100 * (r.nsPerFrame() - plain) / plain
	if err := checkRegistry(w, r.counts); err != nil {
		return wr, err
	}
	stageMetrics(w, out)
	spanMetrics(rec, out)

	// 4. Probes, on whatever the budget has left (at least a fifth of it).
	in := w.probeInputs()
	in.heapDepth = int(base.counts["sim.pending_mean"])
	left := budget - time.Since(start)
	if min := budget / 5; left < min {
		left = min
	}
	runProbes(in, left, out)

	wr.setModel(sp, seed, base.model)
	wr.PerLayer = out
	if traceOut != "" {
		if err := writeSpans(traceOut, rec.spans); err != nil {
			return wr, fmt.Errorf("%s: writing spans: %w", sp.Name, err)
		}
	}
	return wr, nil
}

// spanMetrics derives the span.* metrics from the traced repeat's harness
// spans.
func spanMetrics(rec *spanRec, out map[string]float64) {
	out["span.build_world_s"], _ = rec.total("arch.New")
	out["span.load_policy_s"], _ = rec.total("load_policy")
	out["span.run_s"], _ = rec.total("RunUntil")
	out["span.drain_s"], _ = rec.total("drain")
	out["span.collect_s"], _ = rec.total("collect")
	if s, n := rec.total("Connect"); n > 0 {
		out["span.connect_us_per_conn"] = s * 1e6 / float64(n)
	}
	if s, n := rec.total("InstallRule"); n > 0 {
		out["span.install_rule_us"] = s * 1e6 / float64(n)
	}
}

// checkRegistry registers the world's metrics the way an operator's scrape
// would and checks the registry's view against the public counters the
// layer counts were read from.
func checkRegistry(w world, c counts) error {
	reg := telemetry.NewRegistry()
	w.arch().World().RegisterMetrics(reg, telemetry.Labels{"bench": "normbench"})
	var metrics []struct {
		Name  string   `json:"name"`
		Value *float64 `json:"value"`
	}
	if err := json.Unmarshal([]byte(reg.RenderJSON()), &metrics); err != nil {
		return fmt.Errorf("registry JSON: %w", err)
	}
	want := map[string]float64{
		"norman_nic_rx_wire":      c["nic.rx_frames"],
		"norman_nic_tx_frames":    c["nic.tx_frames"],
		"norman_nic_rx_fifo_drop": c["nic.drop_fifo"],
		"norman_nic_rx_drop_ring": c["nic.drop_ring"],
	}
	seen := 0
	for _, m := range metrics {
		if v, ok := want[m.Name]; ok && m.Value != nil {
			seen++
			if *m.Value != v {
				return fmt.Errorf("registry %s = %v, public counter = %v", m.Name, *m.Value, v)
			}
		}
	}
	if seen != len(want) {
		return fmt.Errorf("registry exposes %d of the %d cross-checked metrics", seen, len(want))
	}
	return nil
}

// stageMetrics decomposes modeled latency by stage from the world's
// packet-lifecycle tracer. Stage values are means over the traced packets
// (means add up; medians do not), and stage.sum_residual_pct checks them
// against the harness's own timestamps for the same packets: on rx the
// three stages against NIC-receive → app delivery, on tx the two NIC stages
// against ring-enqueue → wire (the peer's arrival time minus propagation
// and serialization).
func stageMetrics(w world, out map[string]float64) {
	tr := w.arch().World().Tracer
	harness, tx := w.harnessLatencies()
	names := []string{"stage.rx.wire_to_pipeline_ns", "stage.rx.pipeline_to_ring_ns", "stage.rx.ring_to_app_ns"}
	// boundary maps a lifecycle point to the stage boundary it marks.
	boundary := map[string]int{"rx_wire": 0, "flowcache_hit": 1, "pipeline_ingress": 1, "rx_enqueue": 2, "rx_deliver": 3}
	checked := 0 // first stage the harness timestamps cover
	if tx {
		names = []string{"stage.tx.send_to_ring_ns", "stage.tx.ring_to_pipeline_ns", "stage.tx.pipeline_to_wire_ns"}
		boundary = map[string]int{"syscall_send": 0, "tx_enqueue": 1, "pipeline_egress": 2, "tx": 3}
		checked = 1
	}

	sums := make([]float64, len(names))
	var harnessSum float64
	n := 0
	for _, id := range tr.IDs() {
		lat, ok := harness.get(id)
		if !ok {
			continue
		}
		at := [4]int64{-1, -1, -1, -1}
		for _, ev := range tr.Trace(id) {
			if i, ok := boundary[ev.Point]; ok && at[i] < 0 {
				at[i] = int64(ev.At)
			}
		}
		if at[1] < 0 && !tx {
			at[1] = at[0] // no ingress program: the frame leaves the MAC straight into the pipeline
		}
		if at[0] < 0 || at[1] < 0 || at[2] < 0 || at[3] < 0 {
			continue
		}
		for i := range sums {
			sums[i] += float64(at[i+1] - at[i])
		}
		harnessSum += float64(lat)
		n++
	}
	if n == 0 {
		out["stage.sum_residual_pct"] = 100 // nothing decomposed: the check failed, visibly
		return
	}
	var covered float64
	for i, name := range names {
		out[name] = sums[i] / float64(n) / 1e3 // ps → ns
		if i >= checked {
			covered += sums[i]
		}
	}
	out["stage.sum_residual_pct"] = 100 * math.Abs(covered-harnessSum) / harnessSum
}
