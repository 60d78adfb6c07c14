package norman_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"norman"
	"norman/internal/arch"
	"norman/internal/ctl"
	"norman/internal/faults"
	"norman/internal/health"
	"norman/internal/nic"
	"norman/internal/overload"
	"norman/internal/sniff"
	"norman/internal/telemetry"
	"norman/internal/transport"
	"norman/internal/upgrade"
)

// TestObservabilityDocMatchesRegistry is the drift gate between
// OBSERVABILITY.md and the code: every `norman_<layer>_<name>` metric the
// document's tables mention must exist in a fully populated registry, so a
// rename or removal cannot leave the documentation stale, and a metric
// cannot ship undocumented names in its own table rows without existing.
func TestObservabilityDocMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile("`(norman_[a-z0-9_]+)`").FindAllStringSubmatch(string(doc), -1)
	if len(names) < 40 {
		t.Fatalf("OBSERVABILITY.md documents only %d metric names — inventory tables missing?", len(names))
	}

	reg := populateFullRegistry(t)
	for _, m := range names {
		if !reg.Has(m[1]) {
			t.Errorf("OBSERVABILITY.md documents %s but no such metric is registered", m[1])
		}
	}
}

// TestObservabilityDocMatchesLedger is the same gate for the two ways out:
// OBSERVABILITY.md's drop-reason rows must be the NIC's and the host's reason
// tables' rows, every ledger series of either must be documented, and the
// span inventory's host, nic, ring and wire rows must name every point
// internal/nic and internal/arch emit — and, for the host and nic layers,
// nothing they no longer do.
func TestObservabilityDocMatchesLedger(t *testing.T) {
	raw, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for r := nic.Reason(0); r < nic.NumReasons; r++ {
		row := fmt.Sprintf("| `%s` | `norman_nic_%s` | %s |", r, r.Metric(), r.Help())
		if !strings.Contains(doc, row) {
			t.Errorf("OBSERVABILITY.md lacks the drop-reason row %q", row)
		}
	}
	for r := arch.HostReason(0); r < arch.NumHostReasons; r++ {
		row := fmt.Sprintf("| `%s` | %s |", r, r.Help())
		if !strings.Contains(doc, row) {
			t.Errorf("OBSERVABILITY.md lacks the host drop-reason row %q", row)
		}
	}
	for _, name := range nic.LedgerSeries() {
		if !strings.Contains(doc, "`norman_nic_"+name+"`") {
			t.Errorf("OBSERVABILITY.md does not document ledger series norman_nic_%s", name)
		}
	}
	for _, name := range arch.HostLedgerSeries() {
		if !strings.Contains(doc, "`norman_"+name+"`") {
			t.Errorf("OBSERVABILITY.md does not document host ledger series norman_%s", name)
		}
	}

	documented := map[string]map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(host|nic|ring|wire)` \\| (.*) \\|$").FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = map[string]bool{}
		for _, pt := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(m[2], -1) {
			documented[m[1]][pt[1]] = true
		}
	}
	emitted := map[string]map[string]bool{"host": {}, "nic": {}, "ring": {}, "wire": {}}
	files, _ := filepath.Glob("internal/nic/*.go")
	archFiles, _ := filepath.Glob("internal/arch/*.go")
	for _, f := range append(files, archFiles...) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		for _, m := range regexp.MustCompile(`trace\([^"\n]*"(host|nic|ring|wire)", "([a-z_]+)"`).FindAllStringSubmatch(string(src), -1) {
			emitted[m[1]][m[2]] = true
			if !documented[m[1]][m[2]] {
				t.Errorf("%s emits span %s/%s, which OBSERVABILITY.md's span inventory does not list", f, m[1], m[2])
			}
		}
	}
	// The ring and wire rows also quote notes and reasons, so only the emitted
	// → documented direction is checked for them.
	for _, layer := range []string{"host", "nic"} {
		for pt := range documented[layer] {
			if !emitted[layer][pt] {
				t.Errorf("OBSERVABILITY.md lists span %s/%s, which the code no longer emits", layer, pt)
			}
		}
	}
}

// populateFullRegistry builds one registry carrying every layer the repo
// exports: the world's own metrics (host, sim, nic, mem, trace) and the
// standing qdisc's (qos) via EnableTelemetry, plus ctl, sniff, transport and
// faults registered the way the daemon and the E9 collector register them.
func populateFullRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	sys := norman.New(norman.KOPI)
	// Every subsystem on (in any order: each call ends in System.resolve), so
	// the recovery.*, overload.*, per-tenant, flowcache.*, health.* and
	// upgrade.* series all register.
	sys.EnableRecovery()
	sys.EnableOverload(overload.Config{})
	if err := sys.EnableTenantIsolation(map[uint32]int{1: 3, 2: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableFlowCache(256); err != nil {
		t.Fatal(err)
	}
	sys.EnableHealth(health.Config{})
	sys.EnableLiveUpgrade(upgrade.Config{})
	reg := sys.EnableTelemetry()
	w := sys.World()

	ctl.NewServer(sys).RegisterMetrics(reg, nil)
	sniff.NewTap(nil, 16).RegisterMetrics(reg, nil)
	transport.RegisterStreamMetrics(reg, nil, func() []*transport.Stream { return nil })
	transport.NewResponder(sys.Arch(), 9, 1).RegisterResponderMetrics(reg, nil)
	faults.New(w.Eng, w.NIC, w.LLC, faults.Config{}).RegisterMetrics(reg, nil)
	return reg
}

// TestQdiscSeriesExported: the standing qdisc's qos series are on the
// facade's registry, on a ring dataplane and on a software one, and they read
// the scheduler live at render time — the one TCSet installed, then its
// replacement.
func TestQdiscSeriesExported(t *testing.T) {
	for _, a := range []norman.Architecture{norman.KOPI, norman.KernelStack} {
		sys := norman.New(a)
		sys.UseSinkPeer()
		reg := sys.EnableTelemetry()
		if err := sys.TCSet(norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{0: 1}}, nil); err != nil {
			t.Fatal(err)
		}
		conn, err := sys.Dial(sys.Spawn(sys.AddUser(1000, "u"), "app"), 4000, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			conn.Send(100)
		}
		sys.Run()
		sample := func(name string) string {
			m := regexp.MustCompile(`(?m)^` + name + `\{arch="` + string(a) + `"\} (\S+)$`).FindStringSubmatch(reg.RenderPrometheus())
			if m == nil {
				t.Fatalf("%s: the dump carries no %s", a, name)
			}
			return m[1]
		}
		sample("norman_qos_queue_depth")
		if got := sample("norman_qos_enq_packets"); got != "5" {
			t.Errorf("%s: norman_qos_enq_packets = %s, want the 5 frames sent", a, got)
		}
		if err := sys.TCSet(norman.QdiscSpec{Kind: "pfifo"}, nil); err != nil {
			t.Fatal(err)
		}
		if got := sample("norman_qos_enq_packets"); got != "0" {
			t.Errorf("%s: after the swap norman_qos_enq_packets = %s, want the new qdisc's 0", a, got)
		}
	}
}
