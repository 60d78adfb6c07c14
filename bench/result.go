package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// File is what `normbench -out` writes and `normbench -compare` reads: one
// complete set of runs of one commit.
type File struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds_per_workload"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"nproc"`
	Workloads []WorkloadResult `json:"workloads"`
}

// NewFile stamps an empty result file with the machine it ran on.
func NewFile(seed int64, seconds int) File {
	return File{Seed: seed, Seconds: seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
}

// ReadFile loads a result file.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Write stores the file as indented JSON.
func (f File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the one-line result the benchmark contract asks for on the
// last line of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ContractLine renders a workload result as the contract's JSON object:
// every end-to-end metric's median for an untraced run, every per-layer
// metric for a traced one.
func ContractLine(wr WorkloadResult) (string, error) {
	line := contractLine{Correct: true, Attempted: wr.Ops, Failed: wr.FailedOps, Metrics: map[string]contractMetric{}}
	if wr.PerLayer != nil {
		for _, d := range PerLayer {
			line.Metrics[d.Name] = contractMetric{Value: wr.PerLayer[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range EndToEnd {
			line.Metrics[d.Name] = contractMetric{Value: wr.EndToEnd[d.Name].Median, Unit: d.Unit}
		}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// Print writes a workload's metrics by name with their units, one per line.
func (wr WorkloadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  %s loop  frames %d  ops %d  failed_ops %d  model_fingerprint %s\n",
		wr.Workload, wr.Seed, wr.Loop, wr.Frames, wr.Ops, wr.FailedOps, wr.Fingerprint)
	if wr.Loop == "open" {
		fmt.Fprintln(w, "  open loop in virtual time: the generator is never late by construction")
	}
	for _, d := range EndToEnd {
		s, ok := wr.EndToEnd[d.Name]
		if !ok {
			continue
		}
		note := ""
		if strings.HasPrefix(d.Name, "model_lat_") {
			note = fmt.Sprintf("  (%d samples)", wr.LatSamples)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-7s min %.6g  max %.6g  n=%d%s\n", d.Name, s.Median, d.Unit, s.Min, s.Max, s.N, note)
	}
	if wr.EndToEnd != nil {
		fmt.Fprintf(w, "  setup_s and host_ns_per_frame are at reference speed: raw %.6g ns/frame, reference kernel %.6g ns/op (nominal %g)\n",
			wr.RawNsPerFrame, wr.RefNsPerOp, refNominalNs)
	}
	if wr.PerLayer != nil {
		for _, d := range PerLayer {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
		}
	}
}

// Bound is one end-to-end metric's direction and regression bound, as
// BENCHMARK.json fixes them.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ReadBounds loads the end-to-end metric table from BENCHMARK.json.
func ReadBounds(path string) ([]Bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// verdict compares metric b against a under a direction and bound:
//
//   - worse: b's median is worse than a's by more than the bound;
//   - better: every repeat of b beats every repeat of a;
//   - unresolved: neither, and the run-to-run spread (interquartile range
//     over the median) of either side exceeds the bound, so "no change"
//     cannot be told from a change the bound would reject;
//   - same: otherwise.
func verdict(a, b Stat, bd Bound) string {
	sign := 1.0 // lower is better
	if bd.Better == "higher" {
		sign = -1
	}
	if a.Median != 0 && sign*(b.Median-a.Median)/math.Abs(a.Median) > bd.Bound {
		return "worse"
	}
	if (sign > 0 && b.Max < a.Min) || (sign < 0 && b.Min > a.Max) {
		return "better"
	}
	spread := func(s Stat) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	if spread(a) > bd.Bound || spread(b) > bd.Bound {
		return "unresolved"
	}
	return "same"
}

// Compare prints one row per workload and end-to-end metric and reports
// whether b is acceptable against a: no metric worse, and no larger share of
// failed operations.
func Compare(w io.Writer, a, b File, bounds []Bound) bool {
	ok := true
	inB := make(map[string]WorkloadResult, len(b.Workloads))
	for _, wr := range b.Workloads {
		inB[wr.Workload] = wr
	}

	fmt.Fprintf(w, "%-16s %-24s %-7s %13s %27s %13s %27s %8s  %s\n",
		"workload", "metric", "unit", "a median", "a min..max", "b median", "b min..max", "change", "verdict")
	for _, wa := range a.Workloads {
		name, wb := wa.Workload, inB[wa.Workload]
		if wb.Workload == "" {
			fmt.Fprintf(w, "%-16s missing from b\n", name)
			ok = false
			continue
		}
		for _, bd := range bounds {
			sa, sb := wa.EndToEnd[bd.Name], wb.EndToEnd[bd.Name]
			v := verdict(sa, sb, bd)
			if v == "worse" {
				ok = false
			}
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / math.Abs(sa.Median)
			}
			fmt.Fprintf(w, "%-16s %-24s %-7s %13.6g %13.6g..%-13.6g %13.6g %13.6g..%-13.6g %+7.2f%%  %s\n",
				name, bd.Name, bd.Unit, sa.Median, sa.Min, sa.Max, sb.Median, sb.Min, sb.Max, change, v)
		}
		fa, fb := float64(wa.FailedOps)/float64(wa.Ops), float64(wb.FailedOps)/float64(wb.Ops)
		fv := "same"
		if fb > fa {
			fv, ok = "worse", false
		}
		fmt.Fprintf(w, "%-16s %-24s %-7s %13d of %-24d %13d of %-24d %8s  %s\n",
			name, "failed_ops", "count", wa.FailedOps, wa.Ops, wb.FailedOps, wb.Ops, "", fv)
		mv := "same"
		if wa.Fingerprint != wb.Fingerprint {
			mv = "moved"
		}
		fmt.Fprintf(w, "%-16s %-24s %-7s %13s %27s %13s %27s %8s  %s\n",
			name, "model_fingerprint", "hash", wa.Fingerprint[:8], "", wb.Fingerprint[:8], "", "", mv)
	}
	return ok
}
