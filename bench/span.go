package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one harness span: a call from the benchmark into a layer. Spans
// of one repeat share Run; Parent is the ID of the enclosing span, 0 at the
// top. Times are host nanoseconds since the recorder was created.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRec keeps harness spans in memory until the benchmark ends. A nil
// recorder records nothing, which is how untraced repeats run: begin and end
// cost one branch.
type spanRec struct {
	run   string
	t0    time.Time
	spans []Span
	open  []int // stack of open span IDs
}

func newSpanRec(run string) *spanRec {
	return &spanRec{run: run, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its ID.
func (r *spanRec) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name, StartNs: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// end closes the span and everything opened inside it.
func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	for n := len(r.open); n > 0; n = len(r.open) {
		top := r.open[n-1]
		r.open = r.open[:n-1]
		r.spans[top-1].EndNs = now
		if top == id {
			return
		}
	}
}

// total returns the summed duration in seconds and the count of spans with
// the given name.
func (r *spanRec) total(name string) (seconds float64, n int) {
	if r == nil {
		return 0, 0
	}
	for _, s := range r.spans {
		if s.Name == name {
			seconds += float64(s.EndNs-s.StartNs) / 1e9
			n++
		}
	}
	return seconds, n
}

// writeSpans writes spans.json under dir.
func writeSpans(dir string, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644)
}
