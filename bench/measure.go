package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// MinRepeats is the least number of untraced repeats a measurement makes,
// however short its time budget.
const MinRepeats = 5

// repeat is the outcome of one fresh world on both clocks.
type repeat struct {
	refNs      float64 // reference kernel ns/op just before this repeat
	setupS     float64 // build world, load policy, open initial connections
	runS       float64 // first generator tick → engine drained
	mallocs    uint64  // MemStats.Mallocs delta over the run phase
	allocBytes uint64  // MemStats.TotalAlloc delta over the run phase
	gcCycles   uint32  // MemStats.NumGC delta over the run phase
	liveHeapMB float64 // HeapAlloc after a forced GC, world still referenced
	model      modelResult
	counts     counts
}

func (r repeat) nsPerFrame() float64 { return r.runS * 1e9 / float64(r.model.Frames) }

// runOnce builds a fresh world and runs it to completion. With rec non-nil
// the harness records spans; with traced the world's own tracer is on; with
// prof non-nil a CPU profile of the run phase is written to it.
func runOnce(sp Spec, seed int64, rec *spanRec, traced bool, prof *bytes.Buffer) (repeat, world, error) {
	var r repeat
	r.refNs = referenceNsPerOp()
	runtime.GC() // every repeat starts from a collected heap
	t0 := time.Now()
	w, err := sp.build(sp, seed, rec, traced)
	r.setupS = time.Since(t0).Seconds()
	if err != nil {
		return r, nil, fmt.Errorf("%s: set-up: %w", sp.Name, err)
	}

	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return r, nil, fmt.Errorf("%s: cpu profile: %w", sp.Name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1 := time.Now()
	w.run(rec)
	r.runS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&after)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC

	id := rec.begin("collect")
	r.model, r.counts, err = w.collect()
	rec.end(id)
	if err != nil {
		return r, nil, fmt.Errorf("%s: correctness: %w", sp.Name, err)
	}
	if r.model.Ops == 0 || r.model.Frames == 0 {
		return r, nil, fmt.Errorf("%s: correctness: no work done", sp.Name)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	r.liveHeapMB = float64(after.HeapAlloc-8*refArrayWords) / (1 << 20) // less the reference kernel's array
	runtime.KeepAlive(w)
	return r, w, nil
}

// Stat summarises one metric over the repeats of a run.
type Stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarise computes the order statistics of vs.
func summarise(unit string, vs []float64) Stat {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(q float64) float64 { // linear interpolation between ranks
		p := q * float64(len(s)-1)
		i := int(p)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (p-float64(i))*(s[i+1]-s[i])
	}
	return Stat{Unit: unit, Median: at(0.5), Min: s[0], Max: s[len(s)-1], Q1: at(0.25), Q3: at(0.75), N: len(s)}
}

// medianOf returns the median of f over the repeats.
func medianOf(reps []repeat, f func(repeat) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return summarise("", vs).Median
}

// WorkloadResult is everything one workload reports for one seed.
type WorkloadResult struct {
	Workload    string `json:"workload"`
	Loop        string `json:"loop"`
	Seed        int64  `json:"seed"`
	Frames      uint64 `json:"frames"`
	Ops         uint64 `json:"ops"`
	FailedOps   uint64 `json:"failed_ops"`
	LatSamples  int    `json:"latency_samples"`
	Fingerprint string `json:"model_fingerprint"`
	// RefNsPerOp is the run's median reference-kernel cost; setup_s and
	// host_ns_per_frame are reported at reference speed (reference.go).
	// RawNsPerFrame is host_ns_per_frame before that scaling.
	RefNsPerOp    float64 `json:"reference_ns_per_op"`
	RawNsPerFrame float64 `json:"raw_ns_per_frame"`
	// EndToEnd comes only from untraced repeats.
	EndToEnd map[string]Stat `json:"end_to_end,omitempty"`
	// PerLayer comes from the traced run and the probes.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

func (wr *WorkloadResult) setModel(sp Spec, seed int64, m modelResult) {
	wr.Workload, wr.Loop, wr.Seed = sp.Name, sp.Loop, seed
	wr.Frames, wr.Ops, wr.FailedOps = m.Frames, m.Ops, m.FailedOps
	wr.LatSamples = m.LatSamples
	wr.Fingerprint = fmt.Sprintf("%016x", m.Fingerprint)
}

// Measure runs untraced repeats of a workload — fresh world each, same seed
// — until the budget is spent (at least MinRepeats) and reports the ten
// end-to-end metrics. Host-clock metrics are medians over the repeats, the
// two host times at reference speed; modeled metrics must be bit-identical
// across the repeats.
func Measure(sp Spec, seed int64, budget time.Duration) (WorkloadResult, error) {
	var wr WorkloadResult
	var reps []repeat
	start := time.Now()
	for len(reps) < MinRepeats || time.Since(start) < budget {
		r, _, err := runOnce(sp, seed, nil, false, nil)
		if err != nil {
			return wr, err
		}
		if len(reps) > 0 && r.model != reps[0].model {
			return wr, fmt.Errorf("%s: modeled outputs differ between repeats of seed %d: %+v vs %+v",
				sp.Name, seed, reps[0].model, r.model)
		}
		reps = append(reps, r)
	}

	m := reps[0].model
	wr.setModel(sp, seed, m)
	wr.RefNsPerOp, wr.RawNsPerFrame = medianOf(reps, func(r repeat) float64 { return r.refNs }), medianOf(reps, repeat.nsPerFrame)
	atRef := refNominalNs / wr.RefNsPerOp
	host := map[string]func(repeat) float64{
		"setup_s":               func(r repeat) float64 { return r.setupS * atRef },
		"host_ns_per_frame":     func(r repeat) float64 { return r.nsPerFrame() * atRef },
		"host_allocs_per_frame": func(r repeat) float64 { return perFrame(float64(r.mallocs), r.model.Frames) },
		"host_bytes_per_frame":  func(r repeat) float64 { return perFrame(float64(r.allocBytes), r.model.Frames) },
		"host_live_heap_mb":     func(r repeat) float64 { return r.liveHeapMB },
	}
	modeled := map[string]float64{
		"model_goodput_gbps":  m.GoodputGbps,
		"model_lat_p50_us":    m.LatP50us,
		"model_lat_p99_us":    m.LatP99us,
		"model_delivered_pct": m.DeliveredPct,
		"model_cpu_cores":     m.CPUCores,
	}
	wr.EndToEnd = make(map[string]Stat, len(EndToEnd))
	for _, d := range EndToEnd {
		if f, ok := host[d.Name]; ok {
			vs := make([]float64, len(reps))
			for i, r := range reps {
				vs[i] = f(r)
			}
			wr.EndToEnd[d.Name] = summarise(d.Unit, vs)
		} else {
			v := modeled[d.Name]
			wr.EndToEnd[d.Name] = Stat{Unit: d.Unit, Median: v, Min: v, Max: v, Q1: v, Q3: v, N: len(reps)}
		}
	}
	return wr, nil
}
