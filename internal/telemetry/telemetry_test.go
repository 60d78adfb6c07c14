package telemetry

import (
	"fmt"
	"strings"
	"testing"

	"norman/internal/sim"
	"norman/internal/stats"
)

func TestRegistryRenderDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		var n uint64 = 7
		// Register out of sorted order; rendering must sort.
		r.Gauge(Desc{Layer: "host", Name: "cpu_busy", Help: "busy", Unit: "seconds"},
			Labels{"arch": "kopi"}, func() float64 { return 1.5 })
		r.Counter(Desc{Layer: "nic", Name: "tx_frames", Help: "frames sent", Unit: "frames"},
			Labels{"arch": "kopi", "fault": "2"}, func() uint64 { return n })
		r.Counter(Desc{Layer: "nic", Name: "tx_frames", Help: "frames sent", Unit: "frames"},
			Labels{"arch": "bypass", "fault": "2"}, func() uint64 { return n + 1 })
		var h stats.Histogram
		h.Observe(10 * sim.Microsecond)
		h.Observe(20 * sim.Microsecond)
		r.Histogram(Desc{Layer: "transport", Name: "rtt", Help: "smoothed rtt", Unit: "seconds"},
			nil, func() stats.Histogram { return h })
		return r
	}
	a, b := build().RenderPrometheus(), build().RenderPrometheus()
	if a != b {
		t.Fatalf("renders differ:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{
		"# TYPE norman_nic_tx_frames counter",
		`norman_nic_tx_frames{arch="bypass",fault="2"} 8`,
		`norman_nic_tx_frames{arch="kopi",fault="2"} 7`,
		"# TYPE norman_transport_rtt summary",
		"norman_transport_rtt_count 2",
		`norman_transport_rtt{quantile="0.99"}`,
		`norman_host_cpu_busy{arch="kopi"} 1.5`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, a)
		}
	}
	// The bypass instance sorts before kopi (label-rendered key order).
	if strings.Index(a, `arch="bypass"`) > strings.Index(a, `arch="kopi",fault`) {
		t.Errorf("label sets not sorted:\n%s", a)
	}
}

func TestRegistryHasAndLayers(t *testing.T) {
	r := NewRegistry()
	r.Counter(Desc{Layer: "faults", Name: "tx_lost", Help: "h", Unit: "frames"}, nil, func() uint64 { return 0 })
	r.Gauge(Desc{Layer: "mem", Name: "alloc_bytes", Help: "h", Unit: "bytes"}, nil, func() float64 { return 0 })
	if !r.Has("faults_tx_lost") || !r.Has("norman_faults_tx_lost") {
		t.Fatal("Has must accept bare and full names")
	}
	if r.Has("faults_rx_lost") {
		t.Fatal("Has false positive")
	}
	layers := r.Layers()
	if len(layers) != 2 || layers[0] != "faults" || layers[1] != "mem" {
		t.Fatalf("layers = %v", layers)
	}
	if len(r.Names()) != 2 {
		t.Fatalf("names = %v", r.Names())
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter(Desc{Layer: "nic", Name: "rx_wire", Help: "frames from the wire", Unit: "frames"},
		Labels{"arch": "kopi"}, func() uint64 { return 42 })
	out := r.RenderJSON()
	for _, want := range []string{`"norman_nic_rx_wire"`, `"value": 42`, `"layer": "nic"`, `"arch": "kopi"`} {
		if !strings.Contains(out, want) {
			t.Errorf("json missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSpanLifecycle(t *testing.T) {
	tr := NewTracer(2)
	a := tr.StampID()
	b := tr.StampID()
	tr.Record(a, 10, "host", "syscall_send", "")
	tr.Record(a, 30, "wire", "tx", "len=60")
	tr.Record(a, 20, "nic", "pipeline_egress", "verdict=pass")
	tr.Record(b, 15, "host", "syscall_send", "")

	span := tr.Trace(a)
	if len(span) != 3 {
		t.Fatalf("span len = %d", len(span))
	}
	// Sorted by virtual time.
	if span[0].Point != "syscall_send" || span[1].Point != "pipeline_egress" || span[2].Point != "tx" {
		t.Fatalf("span order: %+v", span)
	}

	// Third ID evicts the oldest (a); recording onto an evicted ID is a
	// counted no-op.
	c := tr.StampID()
	if tr.Trace(a) != nil {
		t.Fatal("a not evicted")
	}
	tr.Record(a, 40, "peer", "rx", "")
	if tr.Trace(a) != nil {
		t.Fatal("evicted span resurrected")
	}
	tr.Record(c, 5, "host", "syscall_send", "")
	stamped, events, evicted := tr.Stats()
	if stamped != 3 || evicted != 1 || events != 6 {
		t.Fatalf("stats = %d %d %d", stamped, events, evicted)
	}
	if got := tr.IDs(); len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("ids = %v", got)
	}
	out := tr.Format(b)
	if !strings.Contains(out, "1 interposition points") || !strings.Contains(out, "syscall_send") {
		t.Fatalf("format: %q", out)
	}
	if !strings.Contains(tr.Format(a), "not traced") {
		t.Fatal("format of evicted id")
	}
}

// TestTracerWindow holds the tracker to the stamp-order queue it replaced: at
// every stamp, below and past the depth, the tracked IDs are exactly the last
// depth stamped, in stamp order, and only they keep a span.
func TestTracerWindow(t *testing.T) {
	for _, depth := range []int{1, 3, 8} {
		tr := NewTracer(depth)
		var order []uint64 // the oracle: every ID stamped, oldest evicted past depth
		if ids := tr.IDs(); len(ids) != 0 {
			t.Fatalf("depth %d: a fresh tracer tracks %v", depth, ids)
		}
		for i := 0; i < 4*depth; i++ {
			order = append(order, tr.StampID())
			if len(order) > depth {
				order = order[1:]
			}
			if got := tr.IDs(); fmt.Sprint(got) != fmt.Sprint(order) {
				t.Fatalf("depth %d, stamp %d: IDs %v, want %v", depth, i+1, got, order)
			}
			if _, oldest := tr.spans[order[0]]; len(tr.spans) != len(order) || !oldest {
				t.Fatalf("depth %d, stamp %d: %d spans kept for %v", depth, i+1, len(tr.spans), order)
			}
		}
		if _, _, evicted := tr.Stats(); evicted != uint64(3*depth) {
			t.Fatalf("depth %d: %d evicted, want %d", depth, evicted, 3*depth)
		}
	}
}

func TestDepthFromEnv(t *testing.T) {
	t.Setenv("NORMAN_TRACE_DEPTH", "")
	if DepthFromEnv() != DefaultTraceDepth {
		t.Fatal("default depth")
	}
	t.Setenv("NORMAN_TRACE_DEPTH", "12")
	if DepthFromEnv() != 12 {
		t.Fatal("env depth")
	}
	t.Setenv("NORMAN_TRACE_DEPTH", "bogus")
	if DepthFromEnv() != DefaultTraceDepth {
		t.Fatal("bogus depth falls back")
	}
}
