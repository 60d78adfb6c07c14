// Package stats provides the measurement primitives used by every
// experiment: counters, rate gauges, and logarithmic latency histograms with
// percentile queries, plus plain-text table rendering so benches print the
// same row/column layout the experiment index in DESIGN.md promises.
package stats

import (
	"fmt"
	"math"
	"sort"

	"norman/internal/sim"
)

// Counter is a monotonically increasing event count. It deliberately has no
// Reset: monotonicity is the property telemetry renderers and rate
// calculations rely on (a Prometheus counter that goes backwards corrupts
// every rate() over it). Measurement loops that want per-interval counts
// should use ResettableCounter and say so.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// ResettableCounter is a Counter that a measurement loop may zero between
// intervals. It is a distinct type so a reset-capable count can never be
// registered where a monotonic Counter is documented.
type ResettableCounter struct {
	Counter
}

// Reset zeroes the counter.
func (c *ResettableCounter) Reset() { c.n = 0 }

// Histogram records durations in logarithmic buckets (about 4.6% relative
// resolution) between 1 ns and ~18 s, with exact tracking of count, sum, min
// and max. Percentile queries interpolate within a bucket.
type Histogram struct {
	buckets [nBuckets]uint64
	count   uint64
	sum     sim.Duration
	min     sim.Duration
	max     sim.Duration
}

const (
	nBuckets      = 512
	bucketsPerDec = 51 // buckets per decade: resolution 10^(1/51) ≈ 4.6%
)

func bucketOf(d sim.Duration) int {
	if d < sim.Nanosecond {
		return 0
	}
	// log10(d/1ns) * bucketsPerDec
	b := int(math.Log10(float64(d)/float64(sim.Nanosecond)) * bucketsPerDec)
	if b < 0 {
		b = 0
	}
	if b >= nBuckets {
		b = nBuckets - 1
	}
	return b
}

func bucketLow(i int) sim.Duration {
	return sim.Duration(float64(sim.Nanosecond) * math.Pow(10, float64(i)/bucketsPerDec))
}

// Observe records one duration.
func (h *Histogram) Observe(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(int64(h.sum) / int64(h.count))
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() sim.Duration { return h.sum }

// Min returns the smallest observation.
func (h *Histogram) Min() sim.Duration { return h.min }

// Max returns the largest observation.
func (h *Histogram) Max() sim.Duration { return h.max }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation inside
// the containing bucket, clamped to [Min, Max].
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			frac := (target - cum) / float64(n)
			lo, hi := bucketLow(i), bucketLow(i+1)
			v := lo + sim.Duration(float64(hi-lo)*frac)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

// P50 and P99 are convenience quantile accessors.
func (h *Histogram) P50() sim.Duration { return h.Quantile(0.50) }
func (h *Histogram) P99() sim.Duration { return h.Quantile(0.99) }

// Reset clears all observations.
func (h *Histogram) Reset() { *h = Histogram{} }

// Throughput converts a byte count over an interval into Gbit/s.
func Throughput(bytes uint64, elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / elapsed.Seconds() / 1e9
}

// Rate converts an event count over an interval into events/second.
func Rate(events uint64, elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(events) / elapsed.Seconds()
}

// Table accumulates rows and renders them with aligned columns; every
// experiment driver prints its results through a Table so the bench output
// matches the per-experiment index in DESIGN.md.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; each cell is formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, hcell := range t.headers {
		widths[i] = len(hcell)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += t.Title + "\n"
	}
	line := func(cells []string) string {
		s := ""
		for i, cell := range cells {
			if i > 0 {
				s += "  "
			}
			s += pad(cell, widths[i])
		}
		return s + "\n"
	}
	out += line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = dashes(widths[i])
	}
	out += line(sep)
	for _, row := range t.rows {
		out += line(row)
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

// Summary computes exact quantiles over a small sample slice (used by tests
// to cross-check Histogram interpolation).
func Summary(samples []sim.Duration, q float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}
