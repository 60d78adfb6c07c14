package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"norman/internal/sim"
)

// Event is one interposition point's observation of one packet: where the
// packet was (layer + point), when in virtual time, and an optional
// free-form note ("verdict=pass cycles=12", "loss", "reason=e9 injected
// trap").
type Event struct {
	ID    uint64   // packet trace ID (packet.Meta.Trace)
	At    sim.Time // virtual timestamp from the world's engine
	Layer string   // host, ring, nic, wire, faults, peer
	Point string   // syscall_send, tx_enqueue, pipeline_egress, ...
	Note  string
}

func (e Event) String() string {
	s := fmt.Sprintf("%-12s %-7s %-16s", e.At, e.Layer, e.Point)
	if e.Note != "" {
		s += "  " + e.Note
	}
	return s
}

// Tracer records packet-lifecycle spans into a bounded window: at most depth
// distinct packet IDs are retained, oldest-stamped evicted first. IDs are
// issued consecutively from 1, so the tracked set is always the last depth of
// them, (nextID−depth, nextID]. It is single-world state like every other
// dataplane structure — one Tracer per engine, no locking, fully
// deterministic.
type Tracer struct {
	depth  int
	nextID uint64
	spans  map[uint64][]Event

	events  uint64 // total events recorded (including onto evicted IDs' lives)
	stamped uint64 // total IDs issued
	evicted uint64 // IDs whose spans were evicted to stay within depth
}

// NewTracer builds a tracer retaining depth distinct packet journeys
// (depth <= 0 takes DefaultTraceDepth).
func NewTracer(depth int) *Tracer {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	return &Tracer{depth: depth, spans: make(map[uint64][]Event)}
}

// StampID issues the next packet trace ID and reserves span space for it,
// evicting the oldest tracked packet when the buffer is full. Callers stamp
// it into packet.Meta.Trace at the packet's first interposition point.
func (t *Tracer) StampID() uint64 {
	t.nextID++
	t.stamped++
	id := t.nextID
	if id > uint64(t.depth) {
		delete(t.spans, id-uint64(t.depth))
		t.evicted++
	}
	t.spans[id] = nil
	return id
}

// Record appends an event to a packet's span. Events for IDs the tracer no
// longer tracks (evicted, or never stamped here) are counted but dropped —
// a late DMA completion must not resurrect an evicted journey.
func (t *Tracer) Record(id uint64, at sim.Time, layer, point, note string) {
	if id == 0 {
		return
	}
	t.events++
	if _, ok := t.spans[id]; !ok {
		return
	}
	t.spans[id] = append(t.spans[id], Event{ID: id, At: at, Layer: layer, Point: point, Note: note})
}

// Trace returns one packet's events ordered by virtual time (stable on
// recording order for equal timestamps), or nil when the ID is unknown.
func (t *Tracer) Trace(id uint64) []Event {
	span, ok := t.spans[id]
	if !ok {
		return nil
	}
	out := append([]Event(nil), span...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// IDs returns the tracked packet IDs in stamp order.
func (t *Tracer) IDs() []uint64 {
	first := uint64(1)
	if t.nextID > uint64(t.depth) {
		first = t.nextID - uint64(t.depth) + 1
	}
	ids := make([]uint64, 0, t.nextID+1-first)
	for id := first; id <= t.nextID; id++ {
		ids = append(ids, id)
	}
	return ids
}

// Stats returns cumulative stamped IDs, recorded events, and evicted spans —
// the accounting OBSERVABILITY.md documents and the registry exports.
func (t *Tracer) Stats() (stamped, events, evicted uint64) {
	return t.stamped, t.events, t.evicted
}

// RegisterMetrics publishes the tracer's own accounting under layer "trace".
func (t *Tracer) RegisterMetrics(r *Registry, labels Labels) {
	r.Counter(Desc{Layer: "trace", Name: "ids_stamped", Help: "packet trace IDs issued", Unit: "packets"},
		labels, func() uint64 { return t.stamped })
	r.Counter(Desc{Layer: "trace", Name: "events_recorded", Help: "span events recorded at interposition points", Unit: "events"},
		labels, func() uint64 { return t.events })
	r.Counter(Desc{Layer: "trace", Name: "spans_evicted", Help: "packet spans evicted from the ring buffer", Unit: "spans"},
		labels, func() uint64 { return t.evicted })
}

// Format renders one packet's journey as the table `ntcpdump -trace <id>`
// prints: one line per interposition point, ordered by virtual time.
func (t *Tracer) Format(id uint64) string {
	span := t.Trace(id)
	if span == nil {
		return fmt.Sprintf("packet %d: not traced (buffer depth %d, oldest evicted first)\n", id, t.depth)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "packet %d: %d interposition points\n", id, len(span))
	for _, e := range span {
		b.WriteString("  ")
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
