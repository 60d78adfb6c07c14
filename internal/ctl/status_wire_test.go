package ctl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"norman"
	"norman/internal/health"
	"norman/internal/overload"
	"norman/internal/recovery"
	"norman/internal/upgrade"
	"norman/internal/wire"
)

// normandShaped boots a system the way cmd/normand does — every subsystem on,
// tenants {1:3, 2:1}, the three demo senders against an echoing gateway — so
// the status ops have something to report in every field group.
func normandShaped(t *testing.T) *norman.System {
	t.Helper()
	sys := norman.New(norman.KOPI)
	sys.EnableRecovery()
	sys.EnableOverload(overload.Config{}).Start(0)
	if err := sys.EnableTenantIsolation(map[uint32]int{1: 3, 2: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableFlowCache(1024); err != nil {
		t.Fatal(err)
	}
	sys.EnableHealth(health.Config{}).Start(0)
	sys.EnableLiveUpgrade(upgrade.Config{})
	sys.EnableTelemetry()
	net := wire.NewNetwork(sys.Arch())
	net.AddEndpoint(sys.World().PeerIP, sys.World().PeerMAC, wire.EchoUDP)

	bob, charlie := sys.AddUser(1001, "bob"), sys.AddUser(1002, "charlie")
	sys.AssignTenant(bob, 1)
	sys.AssignTenant(charlie, 2)
	for _, d := range []struct {
		u          *norman.User
		cmd        string
		port, peer uint16
		payload    int
		every      norman.Duration
	}{
		{bob, "postgres", 5432, 5432, 256, 40 * norman.Microsecond},
		{charlie, "backup", 30873, 873, 1460, 15 * norman.Microsecond},
		{bob, "game", 20101, 27015, 120, 25 * norman.Microsecond},
	} {
		d := d
		conn, err := sys.Dial(sys.Spawn(d.u, d.cmd), d.port, d.peer)
		if err != nil {
			t.Fatal(err)
		}
		var tick func()
		tick = func() {
			conn.Send(d.payload)
			sys.After(d.every, tick)
		}
		sys.At(0, tick)
	}
	return sys
}

// canonical re-renders one JSON reply with zero and empty values dropped and
// keys sorted (encoding/json sorts map keys), so two encodings of the same
// facts that differ only in `omitempty` or field order compare equal.
func canonical(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("reply is not JSON: %v\n%s", err, raw)
	}
	// prune drops an object's zero-valued members, depth first, and reports
	// whether v itself is zero; array elements keep their place.
	var prune func(v interface{}) (zero bool)
	prune = func(v interface{}) bool {
		switch x := v.(type) {
		case map[string]interface{}:
			for k, e := range x {
				if prune(e) {
					delete(x, k)
				}
			}
			return len(x) == 0
		case []interface{}:
			for _, e := range x {
				prune(e)
			}
			return len(x) == 0
		case json.Number:
			f, err := x.Float64()
			return err == nil && f == 0
		}
		return v == nil || v == false || v == ""
	}
	prune(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestStatusWire pins what the status ops put on the control socket: one
// normand-shaped daemon, an ingress rule (so the flow cache has a chain to
// memoize) and a weighted qdisc, 2 ms of traffic, a same-policy live upgrade
// (so the handover counters move), then every status op in turn (each request
// steps the world StepPerRequest further, as on a live daemon). The golden was recorded before the wire structs were
// collapsed onto the subsystems' own status structs, so it holds the
// collapse to the bytes the old hand-kept mirror produced.
func TestStatusWire(t *testing.T) {
	srv := NewServer(normandShaped(t))
	call := func(op string, args interface{}) json.RawMessage {
		t.Helper()
		var raw json.RawMessage
		if args != nil {
			b, err := json.Marshal(args)
			if err != nil {
				t.Fatal(err)
			}
			raw = b
		}
		data, err := srv.dispatch(Request{Op: op, Args: raw})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return data
	}
	call(OpIPTablesAdd, recovery.RuleRecord{Hook: "INPUT", Rule: recovery.Rule{Proto: "udp", DstPort: 9, Action: "drop"}})
	call(OpTCSet, norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 8, 2: 1},
		ClassOfUID: map[uint32]uint32{1001: 1, 1002: 2}})
	call(OpAdvance, AdvanceArgs{Millis: 2})
	call(OpUpgradeStart, nil)

	var b strings.Builder
	for _, op := range []string{OpStatus, OpOverload, OpTenants, OpFlowCache,
		OpHealth, OpUpgradeStatus, OpRecovery} {
		fmt.Fprintf(&b, "%s: %s\n", op, canonical(t, call(op, nil)))
	}
	checkGolden(t, filepath.Join("testdata", "status_wire.golden"), b.String())
}

// checkGolden compares got with the committed file. A deliberate wire change
// regenerates the file by deleting it and running the test once: a missing
// golden is written from got and the run fails so the new file gets reviewed,
// never silently adopted.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: wrote it from this run; review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
