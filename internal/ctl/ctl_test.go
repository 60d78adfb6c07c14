package ctl

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"norman"
	"norman/internal/filter"
	"norman/internal/overload"
	"norman/internal/recovery"
	"norman/internal/wire"
)

// startServer brings up a daemon around a live KOPI system on a test socket.
func startServer(t *testing.T) (*Client, *norman.System) {
	t.Helper()
	sys := norman.New(norman.KOPI)
	net := wire.NewNetwork(sys.Arch())
	net.AddEndpoint(sys.World().PeerIP, sys.World().PeerMAC, wire.EchoUDP)
	alice := sys.AddUser(1000, "alice")
	app := sys.Spawn(alice, "demo")
	conn, err := sys.Dial(app, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A small self-sustaining workload so advance produces traffic.
	var tick func()
	tick = func() {
		conn.Send(256)
		sys.After(50*norman.Microsecond, tick)
	}
	sys.At(0, tick)

	// Telemetry on, as normand runs it: the dump/trace ops are live and the
	// ctl layer's own request accounting lands in the registry.
	srv := NewServer(sys)
	srv.RegisterMetrics(sys.EnableTelemetry(), nil)
	path := filepath.Join(t.TempDir(), "ctl.sock")
	go func() { _ = srv.Listen(path) }()
	t.Cleanup(func() { _ = srv.Close() })

	var c *Client
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err = Dial(path)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, sys
}

func TestStatusAndAdvance(t *testing.T) {
	c, _ := startServer(t)
	var st StatusData
	if err := c.Call(OpStatus, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.Architecture != "kopi" {
		t.Fatalf("arch %q", st.Architecture)
	}
	before := st.TxFrames
	if err := c.Call(OpAdvance, AdvanceArgs{Millis: 10}, &st); err != nil {
		t.Fatal(err)
	}
	if st.TxFrames <= before {
		t.Fatalf("advance should move traffic: %d -> %d", before, st.TxFrames)
	}
}

// TestStatusCountsLinkDrops: a frame the MAC drops while the link is down is a
// typed ingress drop like any other, so status must count it — during a flap
// an operator would otherwise watch rx_frames grow with nothing delivered and
// nothing dropped.
func TestStatusCountsLinkDrops(t *testing.T) {
	c, sys := startServer(t)
	sys.World().NIC.SetLink(false)
	var st StatusData
	if err := c.Call(OpAdvance, AdvanceArgs{Millis: 1}, &st); err != nil {
		t.Fatal(err)
	}
	link := sys.World().NIC.RxLinkDrop
	if link == 0 {
		t.Fatal("echo replies arriving on a down link must be dropped at the MAC")
	}
	if st.RxDrops < link {
		t.Fatalf("status rx_drops = %d, want it to include the %d link-down drops", st.RxDrops, link)
	}
}

func TestRuleLifecycle(t *testing.T) {
	c, _ := startServer(t)
	uid := uint32(1000)
	err := c.Call(OpIPTablesAdd, recovery.RuleRecord{Hook: "OUTPUT", Rule: recovery.Rule{
		Proto: "udp", DstPort: 9999, OwnerUID: &uid, Action: "drop",
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rules []string
	if err := c.Call(OpIPTablesList, nil, &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0] != "-A OUTPUT -p udp --dport 9999 -m owner --uid-owner 1000 -j DROP   [0 pkts]" {
		t.Fatalf("rules: %q", rules)
	}
	if err := c.Call(OpIPTablesFlush, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(OpIPTablesList, nil, &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Fatalf("after flush: %q", rules)
	}
}

// TestRuleListReadsBack: iptables -L -v lists the rules the NIC holds, as
// read back, each beside its own hit counter. A rule installed under the
// control plane, which the journal never saw, lists beside the journaled one
// instead of lending it its counter, and a rule sent with no action lists as
// the ACCEPT it was installed as.
func TestRuleListReadsBack(t *testing.T) {
	c, sys := startServer(t)
	stray, err := recovery.Rule{Proto: "udp", DstPort: 5555, Action: "count"}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Arch().InstallRule(filter.HookOutput, stray); err != nil {
		t.Fatal(err)
	}
	// The workload's datagrams go to port 7.
	if err := c.Call(OpIPTablesAdd, recovery.RuleRecord{Hook: "OUTPUT", Rule: recovery.Rule{Proto: "udp", DstPort: 7}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(OpAdvance, AdvanceArgs{Millis: 1}, nil); err != nil {
		t.Fatal(err)
	}
	var rules []string
	if err := c.Call(OpIPTablesList, nil, &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0] != "-A OUTPUT -p udp --dport 5555 -j COUNT   [0 pkts]" ||
		!strings.HasPrefix(rules[1], "-A OUTPUT -p udp --dport 7 -j ACCEPT   [") || strings.HasSuffix(rules[1], "[0 pkts]") {
		t.Fatalf("rules: %q", rules)
	}
}

// TestWireRecordCarriesMark: iptables.append carries the journal's rule
// record whole, so a mark rule reaches the NIC and reads back with its mark.
func TestWireRecordCarriesMark(t *testing.T) {
	c, sys := startServer(t)
	rr := recovery.RuleRecord{Hook: "INPUT", Rule: recovery.Rule{Proto: "udp", Action: "mark", Mark: 7}}
	if err := c.Call(OpIPTablesAdd, rr, nil); err != nil {
		t.Fatal(err)
	}
	var rules []string
	if err := c.Call(OpIPTablesList, nil, &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || !strings.HasPrefix(rules[0], "-A INPUT -p udp -j MARK --set-mark 7   [") {
		t.Fatalf("rules: %q", rules)
	}
	if got := sys.IPTablesList(); len(got) != 1 || got[0].RuleRecord != rr {
		t.Fatalf("installed %+v, want %+v", got, rr)
	}
}

// TestWireRecordDecodesOldTools: the bytes a tool built against the old
// per-field wire structs sends (recorded from that build) install the same
// rule and qdisc, and journal the same entries, as the typed records.
func TestWireRecordDecodesOldTools(t *testing.T) {
	legacy := []string{
		`{"op":"iptables.append","args":{"hook":"OUTPUT","proto":"udp","src":"10.0.0.0/8","dport":9999,"uid_owner":1000,"cmd_owner":"curl","action":"drop"}}`,
		`{"op":"tc.set","args":{"kind":"wfq","weights":{"1":8,"2":1},"class_of_uid":{"1001":1,"1002":2},"limit":512}}`,
		`{"op":"tc.show"}`,
	}
	typed := []any{
		recovery.RuleRecord{Hook: "OUTPUT", Rule: recovery.Rule{Proto: "udp", SrcNet: "10.0.0.0/8", DstPort: 9999,
			OwnerUID: norman.UID(1000), OwnerCmd: "curl", Action: "drop"}},
		norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 8, 2: 1},
			ClassOfUID: map[uint32]uint32{1001: 1, 1002: 2}, Limit: 512},
		nil,
	}
	type outcome struct {
		rules   []norman.RuleStatus
		qdisc   norman.QdiscSpec
		show    string
		journal string
	}
	run := func(reqs []Request) outcome {
		sys := norman.New(norman.KOPI)
		rec := sys.EnableRecovery()
		srv := NewServer(sys)
		var o outcome
		for _, req := range reqs {
			data, err := srv.dispatch(req)
			if err != nil {
				t.Fatalf("%s: %v", req.Op, err)
			}
			if req.Op == OpTCShow {
				if err := json.Unmarshal(data, &o.show); err != nil {
					t.Fatal(err)
				}
			}
		}
		o.rules = sys.IPTablesList()
		o.qdisc, _ = sys.TCShow()
		var j bytes.Buffer
		if err := rec.Journal().Encode(&j); err != nil {
			t.Fatal(err)
		}
		o.journal = j.String()
		return o
	}
	var old, cur []Request
	for i, line := range legacy {
		var req Request
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			t.Fatal(err)
		}
		old = append(old, req)
		b, err := Marshal(req.Op, typed[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		cur = append(cur, req)
	}
	got, want := run(old), run(cur)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old tool's bytes installed\n%+v\nthe typed records\n%+v", got, want)
	}
	if len(got.rules) != 1 || got.qdisc.Kind != "wfq" || got.show != "qdisc wfq weights=map[1:8 2:1] class_of_uid=map[1001:1 1002:2]" {
		t.Fatalf("installed %+v", got)
	}
}

func TestCaptureAndNetstat(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Call(OpDumpStart, DumpArgs{Expr: "udp and port 7"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(OpAdvance, AdvanceArgs{Millis: 5}, nil); err != nil {
		t.Fatal(err)
	}
	var recs []DumpRecord
	if err := c.Call(OpDumpFetch, nil, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("capture should have records")
	}
	if recs[0].Attribution == "?" {
		t.Fatalf("KOPI captures must be attributed: %+v", recs[0])
	}

	var pcap PcapData
	if err := c.Call(OpDumpPcap, nil, &pcap); err != nil {
		t.Fatal(err)
	}
	if pcap.Count != len(recs) && pcap.Count == 0 {
		t.Fatalf("pcap count %d", pcap.Count)
	}
	if pcap.Base64 == "" {
		t.Fatal("empty pcap blob")
	}

	var rows []NetstatData
	if err := c.Call(OpNetstat, nil, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Command != "demo" {
		t.Fatalf("netstat: %+v", rows)
	}
}

func TestUnknownOpAndBadArgs(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Call("bogus.op", nil, nil); err == nil {
		t.Fatal("unknown op must error")
	}
	if err := c.Call(OpDumpFetch, nil, nil); err == nil {
		t.Fatal("fetch without a capture must error")
	}
	// The connection stays usable after errors.
	var st StatusData
	if err := c.Call(OpStatus, nil, &st); err != nil {
		t.Fatal(err)
	}
}

func TestPingOp(t *testing.T) {
	c, _ := startServer(t)
	var data PingData
	if err := c.Call(OpPing, PingArgs{Dst: "10.0.0.2", Count: 2}, &data); err != nil {
		t.Fatal(err)
	}
	if data.Sent != 2 || data.Received != 2 || len(data.RTTs) != 2 {
		t.Fatalf("ping data: %+v", data)
	}
}

// startServerArch brings up a daemon on an arbitrary architecture.
func startServerArch(t *testing.T, archName norman.Architecture) *Client {
	t.Helper()
	sys := norman.New(archName)
	net := wire.NewNetwork(sys.Arch())
	net.AddEndpoint(sys.World().PeerIP, sys.World().PeerMAC, wire.EchoUDP)
	srv := NewServer(sys)
	path := filepath.Join(t.TempDir(), "ctl.sock")
	go func() { _ = srv.Listen(path) }()
	t.Cleanup(func() { _ = srv.Close() })
	var c *Client
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err = Dial(path)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestToolDegradationByArchitecture is §2 at the tool level: the same
// commands against bypass and kernelstack daemons succeed or fail exactly
// as the paper predicts.
func TestToolDegradationByArchitecture(t *testing.T) {
	// Bypass: everything administrative fails.
	bp := startServerArch(t, norman.Bypass)
	if err := bp.Call(OpDumpStart, DumpArgs{Expr: "udp"}, nil); err == nil {
		t.Error("bypass tcpdump should fail")
	}
	uid := uint32(1001)
	if err := bp.Call(OpIPTablesAdd, recovery.RuleRecord{Hook: "OUTPUT", Rule: recovery.Rule{OwnerUID: &uid, Action: "drop"}}, nil); err == nil {
		t.Error("bypass owner rule should fail")
	}
	if err := bp.Call(OpPing, PingArgs{Dst: "10.0.0.2", Count: 1}, nil); err == nil {
		t.Error("bypass ping should fail")
	}
	var st StatusData
	if err := bp.Call(OpStatus, nil, &st); err != nil || st.Architecture != "bypass" {
		t.Errorf("status must still work: %v %+v", err, st)
	}

	// Kernelstack: everything works.
	ks := startServerArch(t, norman.KernelStack)
	if err := ks.Call(OpDumpStart, DumpArgs{Expr: "udp"}, nil); err != nil {
		t.Errorf("kernelstack tcpdump: %v", err)
	}
	if err := ks.Call(OpIPTablesAdd, recovery.RuleRecord{Hook: "OUTPUT", Rule: recovery.Rule{OwnerUID: &uid, Action: "drop"}}, nil); err != nil {
		t.Errorf("kernelstack owner rule: %v", err)
	}
	var ping PingData
	if err := ks.Call(OpPing, PingArgs{Dst: "10.0.0.2", Count: 1}, &ping); err != nil || ping.Received != 1 {
		t.Errorf("kernelstack ping: %v %+v", err, ping)
	}
}

// TestTelemetryDumpOp exercises telemetry.dump end to end: after some
// traffic the registry renders in both formats and covers the layers a
// running daemon is expected to populate, including ctl's own accounting.
func TestTelemetryDumpOp(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Call(OpAdvance, AdvanceArgs{Millis: 20}, nil); err != nil {
		t.Fatal(err)
	}
	var data TelemetryData
	if err := c.Call(OpTelemetry, TelemetryArgs{Format: "prometheus"}, &data); err != nil {
		t.Fatal(err)
	}
	if data.Metrics == 0 {
		t.Fatal("empty registry")
	}
	for _, layer := range []string{"nic", "ctl", "host"} {
		found := false
		for _, l := range data.Layers {
			if l == layer {
				found = true
			}
		}
		if !found {
			t.Errorf("layers %v missing %q", data.Layers, layer)
		}
	}
	for _, want := range []string{"norman_nic_tx_frames", "norman_ctl_requests"} {
		if !strings.Contains(data.Body, want) {
			t.Errorf("prometheus body missing %s", want)
		}
	}

	var js TelemetryData
	if err := c.Call(OpTelemetry, TelemetryArgs{Format: "json"}, &js); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(js.Body), "[") {
		t.Fatalf("json body does not look like JSON: %.60s", js.Body)
	}
	if err := c.Call(OpTelemetry, TelemetryArgs{Format: "yaml"}, nil); err == nil {
		t.Fatal("unknown format must error")
	}
}

// TestTraceGetOp exercises trace.get: id 0 resolves to the most recent
// traced packet, and an explicit id renders the same journey.
func TestTraceGetOp(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Call(OpAdvance, AdvanceArgs{Millis: 20}, nil); err != nil {
		t.Fatal(err)
	}
	var latest TraceData
	if err := c.Call(OpTrace, TraceArgs{ID: 0}, &latest); err != nil {
		t.Fatal(err)
	}
	if latest.ID == 0 || len(latest.Available) == 0 {
		t.Fatalf("no trace resolved: %+v", latest)
	}
	if !strings.Contains(latest.Rendered, "interposition points") ||
		!strings.Contains(latest.Rendered, "syscall_send") {
		t.Fatalf("rendered trace lacks the journey:\n%s", latest.Rendered)
	}
	// An explicit id resolves the same packet. The render may have grown
	// since (each ctl request advances virtual time, so an in-flight packet
	// picks up its remaining interposition points) — pin the header instead.
	var explicit TraceData
	if err := c.Call(OpTrace, TraceArgs{ID: latest.ID}, &explicit); err != nil {
		t.Fatal(err)
	}
	if explicit.ID != latest.ID {
		t.Fatalf("explicit id %d resolved to %d", latest.ID, explicit.ID)
	}
	header := strings.SplitN(latest.Rendered, ":", 2)[0]
	if !strings.HasPrefix(explicit.Rendered, header+":") {
		t.Fatalf("explicit render is for a different packet:\n%s", explicit.Rendered)
	}
}

// TestTelemetryDisabled pins the degradation mode: a daemon started without
// EnableTelemetry refuses both observability ops with a clear error.
func TestTelemetryDisabled(t *testing.T) {
	srv := NewServer(norman.New(norman.KOPI))
	if _, err := srv.dispatch(Request{Op: OpTelemetry}); err == nil {
		t.Fatal("telemetry.dump without telemetry must error")
	}
	if _, err := srv.dispatch(Request{Op: OpTrace}); err == nil {
		t.Fatal("trace.get without tracing must error")
	}
}

// TestTenantStatusOp pins the tenant.status op: a daemon without isolation
// answers Enabled=false (graceful degradation, like overload.status), a
// daemon with the scheduler installed reports one merged row per tenant in
// ascending order, and the op is registered idempotent so clients may retry
// it across a control-plane outage.
func TestTenantStatusOp(t *testing.T) {
	if !IdempotentOp(OpTenants) {
		t.Fatal("tenant.status must be idempotent: it is a read-only query")
	}
	c, sys := startServer(t)
	var data TenantData
	if err := c.Call(OpTenants, nil, &data); err != nil {
		t.Fatal(err)
	}
	if data.Enabled || len(data.Tenants) != 0 {
		t.Fatalf("isolation off must answer Enabled=false with no rows: %+v", data)
	}

	if err := sys.EnableTenantIsolation(map[uint32]int{1: 3, 2: 1}); err != nil {
		t.Fatal(err)
	}
	var st StatusData
	if err := c.Call(OpAdvance, AdvanceArgs{Millis: 5}, &st); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(OpTenants, nil, &data); err != nil {
		t.Fatal(err)
	}
	if !data.Enabled {
		t.Fatal("isolation on must answer Enabled=true")
	}
	if len(data.Tenants) < 2 || data.Tenants[0].Tenant >= data.Tenants[1].Tenant {
		t.Fatalf("want ascending tenant rows, got %+v", data.Tenants)
	}
	if data.Tenants[0].Weight != 3 || data.Tenants[1].Weight != 1 {
		t.Fatalf("weights = %d/%d, want 3/1", data.Tenants[0].Weight, data.Tenants[1].Weight)
	}
}

// TestOverloadStatusOp pins the overload.status op: a daemon without a
// governor answers Enabled=false, and one with it serves the governor's own
// snapshot whole — so a refusal at the program gate (E13's containment of an
// overlay-heavy tenant) and the per-tenant budget rows, both of which the old
// hand-kept wire struct dropped, reach the client.
func TestOverloadStatusOp(t *testing.T) {
	if !IdempotentOp(OpOverload) {
		t.Fatal("overload.status must be idempotent: it is a read-only query")
	}
	c, sys := startServer(t)
	var data OverloadData
	if err := c.Call(OpOverload, nil, &data); err != nil {
		t.Fatal(err)
	}
	if data.Enabled {
		t.Fatalf("no governor must answer Enabled=false: %+v", data)
	}

	gov := sys.EnableOverload(overload.Config{MaxProgramCycles: 100})
	if err := sys.EnableTenantIsolation(map[uint32]int{1: 3, 2: 1}); err != nil {
		t.Fatal(err)
	}
	if err := gov.AdmitProgram(2, 101); err == nil {
		t.Fatal("a 101-cycle program must be refused under a 100-cycle bound")
	}
	if err := c.Call(OpOverload, nil, &data); err != nil {
		t.Fatal(err)
	}
	if !data.Enabled || data.State != "ok" {
		t.Fatalf("governor on must answer Enabled=true, state ok: %+v", data)
	}
	if data.RejectedProgram != 1 {
		t.Fatalf("rejected_program = %d at the client, want the 1 program-gate refusal", data.RejectedProgram)
	}
	if len(data.Tenants) != 2 || data.Tenants[0].Tenant != 1 || data.Tenants[0].Weight != 3 ||
		data.Tenants[1].Tenant != 2 || data.Tenants[0].RingBudget <= data.Tenants[1].RingBudget {
		t.Fatalf("want the two tenant budget rows, 3:1, ascending: %+v", data.Tenants)
	}
}
