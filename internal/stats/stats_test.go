package stats

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"norman/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != sim.Microsecond || h.Max() != 100*sim.Microsecond {
		t.Fatalf("min/max: %v %v", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 50*sim.Microsecond || mean > 51*sim.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
	p50 := h.P50()
	if p50 < 45*sim.Microsecond || p50 > 55*sim.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.P99()
	if p99 < 94*sim.Microsecond || p99 > 100*sim.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
}

func TestHistogramMatchesExactQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var h Histogram
	samples := make([]sim.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		d := sim.Duration(rng.Intn(1_000_000)+1) * sim.Nanosecond
		h.Observe(d)
		samples = append(samples, d)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := exactQuantile(samples, q)
		approx := h.Quantile(q)
		ratio := float64(approx) / float64(exact)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("q=%v: approx %v vs exact %v (ratio %.3f)", q, approx, exact, ratio)
		}
	}
}

// exactQuantile is the q-quantile of samples by sorting them.
func exactQuantile(samples []sim.Duration, q float64) sim.Duration {
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.P50() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram")
	}
	h.Observe(-5) // clamps to zero
	if h.Min() != 0 {
		t.Fatalf("negative clamp: %v", h.Min())
	}
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("reset")
	}
}

// TestHistogramEmptyQuantiles pins the contract for a histogram with no
// observations: every quantile, and every summary statistic, is exactly
// zero — no NaNs, no stale minima.
func TestHistogramEmptyQuantiles(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, v)
		}
	}
	if h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty sum/min/max: %v %v %v", h.Sum(), h.Min(), h.Max())
	}
}

// TestHistogramSingleSample: with one observation, every quantile collapses
// to that sample (interpolation must clamp to [Min, Max], not report bucket
// edges).
func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	d := 137 * sim.Microsecond
	h.Observe(d)
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != d {
			t.Fatalf("single-sample Quantile(%v) = %v, want %v", q, v, d)
		}
	}
	if h.Mean() != d || h.Sum() != d || h.Min() != d || h.Max() != d {
		t.Fatalf("single-sample stats: mean=%v sum=%v min=%v max=%v", h.Mean(), h.Sum(), h.Min(), h.Max())
	}
}

// TestHistogramMaxBucketOverflow: observations past the top bucket's range
// (~18 s at 512 log buckets) all land in the final bucket; quantiles stay
// finite and clamp to the true observed maximum, and Sum stays exact.
func TestHistogramMaxBucketOverflow(t *testing.T) {
	var h Histogram
	huge := 100 * sim.Second // far beyond bucketLow(nBuckets-1)
	h.Observe(huge)
	h.Observe(2 * huge)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 2*huge {
		t.Fatalf("max = %v", h.Max())
	}
	if v := h.Quantile(0.999); v < huge || v > 2*huge {
		t.Fatalf("overflow quantile %v outside [%v, %v]", v, huge, 2*huge)
	}
	if h.Sum() != 3*huge {
		t.Fatalf("sum = %v", h.Sum())
	}
	// The interpolated p50 must also never exceed the observed range even
	// though the containing bucket's nominal upper edge does.
	if v := h.P50(); v < huge || v > 2*huge {
		t.Fatalf("p50 %v outside observed range", v)
	}
}

func TestThroughput(t *testing.T) {
	// 125 MB over 10 ms = 100 Gbps.
	g := Throughput(125_000_000, 10*sim.Millisecond)
	if g < 99.9 || g > 100.1 {
		t.Fatalf("throughput = %v", g)
	}
	if Throughput(1, 0) != 0 {
		t.Fatal("zero interval")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("longer-name", 123.456)
	out := tb.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "alpha") {
		t.Fatalf("render: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2
		if len(lines) != 5 {
			t.Fatalf("line count %d: %q", len(lines), out)
		}
	}
	// Columns align: header and rows share the first column width.
	if !strings.Contains(out, "longer-name  123.5") && !strings.Contains(out, "longer-name  123.46") {
		t.Fatalf("float formatting: %q", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.0)
	tb.AddRow(0.1234)
	tb.AddRow(12345.6)
	out := tb.String()
	for _, want := range []string{"3", "0.1234", "12345.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}
