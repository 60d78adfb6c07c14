package norman_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"norman"
	"norman/internal/health"
	"norman/internal/overload"
	"norman/internal/recovery"
	"norman/internal/upgrade"
	"norman/internal/wire"
)

// bootSteps is the set of control-plane asks cmd/normand boots with, in its
// order (samplers started where it starts them), plus one weighted qdisc.
// TestEnableOrderIrrelevant permutes them.
var bootSteps = []struct {
	name string
	do   func(sys *norman.System) error
}{
	{"recovery", func(sys *norman.System) error { sys.EnableRecovery(); return nil }},
	{"overload", func(sys *norman.System) error { sys.EnableOverload(overload.Config{}).Start(0); return nil }},
	{"tenants", func(sys *norman.System) error { return sys.EnableTenantIsolation(map[uint32]int{1: 3, 2: 1}) }},
	{"flowcache", func(sys *norman.System) error { return sys.EnableFlowCache(1024) }},
	{"health", func(sys *norman.System) error { sys.EnableHealth(health.Config{}).Start(0); return nil }},
	{"upgrade", func(sys *norman.System) error { sys.EnableLiveUpgrade(upgrade.Config{}); return nil }},
	{"telemetry", func(sys *norman.System) error { sys.EnableTelemetry(); return nil }},
	{"tc", func(sys *norman.System) error {
		return sys.TCSet(norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 8, 2: 1},
			ClassOfUID: map[uint32]uint32{1001: 1, 1002: 2}})
	}},
}

// bootInOrder boots a system with bootSteps in the given order, checks every
// cross-link between them was made, runs the normand demo traffic for 2 ms and
// returns the registry's metric names and its JSON dump.
func bootInOrder(t *testing.T, order []int) (names []string, dump string) {
	t.Helper()
	sys := norman.New(norman.KOPI)
	for _, i := range order {
		if err := bootSteps[i].do(sys); err != nil {
			t.Fatalf("%s: %v", bootSteps[i].name, err)
		}
	}

	// Tenants → governor, flow cache; qdisc → governor; recovery → upgrade.
	budgets := 0
	for _, row := range sys.Overload().Snapshot().Tenants {
		if row.RingBudget > 0 {
			budgets++
		}
	}
	if budgets != 2 {
		t.Errorf("governor holds %d per-tenant budgets, want 2", budgets)
	}
	if q := sys.World().NIC.FlowCache().Quotas(); len(q) != 2 {
		t.Errorf("flow-cache quotas = %v, want one per tenant", q)
	}
	if !sys.World().NIC.FlowCache().Verify() {
		t.Error("the health monitor is on but the flow cache does not verify checksums")
	}
	if !sys.World().NIC.Shedding() {
		t.Error("a weighted qdisc and the governor are both on but no shed policy is installed")
	}
	if err := sys.StageUpgrade(nil, nil); err != nil {
		t.Fatal(err)
	}
	journaled := map[recovery.Op]int{}
	for _, e := range sys.Recovery().Journal().Entries() {
		journaled[e.Op]++
	}
	if journaled[recovery.OpUpgrade] != 1 || journaled[recovery.OpQdiscSet] != 1 {
		t.Errorf("journal holds %d upgrade and %d qdisc entries, want 1 and 1", journaled[recovery.OpUpgrade], journaled[recovery.OpQdiscSet])
	}

	// The same traffic whatever the order: gateway, one rule, demo senders.
	net := wire.NewNetwork(sys.Arch())
	net.AddEndpoint(sys.World().PeerIP, sys.World().PeerMAC, wire.EchoUDP)
	bob, charlie := sys.AddUser(1001, "bob"), sys.AddUser(1002, "charlie")
	sys.AssignTenant(bob, 1)
	sys.AssignTenant(charlie, 2)
	if err := sys.IPTablesAppend(norman.Input, norman.Rule{Proto: "udp", DstPort: 9, Action: "drop"}); err != nil {
		t.Fatal(err)
	}
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
	sys.RunFor(2 * norman.Millisecond)
	return sys.Telemetry().Names(), sys.Telemetry().RenderJSON()
}

// TestEnableOrderIrrelevant: the Enable* calls and TCSet wire to each other
// whatever order they come in — every one of them ends in System.resolve — so
// a boot in normand's order, reversed, with each step moved first and last,
// and in a few shuffles registers the same metric names, makes the same
// cross-links and, after the same traffic, dumps byte-identical telemetry.
func TestEnableOrderIrrelevant(t *testing.T) {
	n := len(bootSteps)
	canonical := make([]int, n)
	reversed := make([]int, n)
	for i := range canonical {
		canonical[i], reversed[i] = i, n-1-i
	}
	orders := [][]int{reversed}
	for i := 0; i < n; i++ {
		var first, last []int
		for _, j := range canonical {
			if j != i {
				first, last = append(first, j), append(last, j)
			}
		}
		orders = append(orders, append([]int{i}, first...), append(last, i))
	}
	for seed := int64(1); seed <= 4; seed++ {
		orders = append(orders, rand.New(rand.NewSource(seed)).Perm(n))
	}

	wantNames, wantDump := bootInOrder(t, canonical)
	if t.Failed() {
		t.Fatal("the canonical order itself is mis-wired")
	}
	for _, order := range orders {
		var label []string
		for _, i := range order {
			label = append(label, bootSteps[i].name)
		}
		t.Run(strings.Join(label, ","), func(t *testing.T) {
			names, dump := bootInOrder(t, order)
			if !reflect.DeepEqual(names, wantNames) {
				t.Errorf("%d metric names, canonical order registers %d:%s", len(names), len(wantNames), diffNames(wantNames, names))
			}
			if dump != wantDump {
				t.Errorf("telemetry dump differs from the canonical order's:%s", diffLines(wantDump, dump))
			}
		})
	}
}

// diffNames lists the names only one side has.
func diffNames(want, got []string) string {
	side := map[string]int{}
	for _, n := range want {
		side[n] |= 1
	}
	for _, n := range got {
		side[n] |= 2
	}
	var b strings.Builder
	for _, n := range append(append([]string{}, want...), got...) {
		if side[n] != 3 {
			fmt.Fprintf(&b, "\n  %s %s", [...]string{1: "missing", 2: "extra  "}[side[n]], n)
			side[n] = 3
		}
	}
	return b.String()
}

// diffLines shows the first line at which two dumps part.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("\n  line %d of %d (want %d): want %s\n  got %s", i+1, len(g), len(w), w[i], g[i])
		}
	}
	return fmt.Sprintf("\n  %d lines, want %d", len(g), len(w))
}

// TestResolveKeepsLiveTenantState: resolve installs only what is absent or
// changed. With frames in flight, enabling further subsystems, setting a qdisc
// and asking again for the same tenant weights leave the live scheduler, the
// DDIO partition's counters and the governor's budgets exactly as they were —
// a rebuilt scheduler would orphan the FIFO shares those frames hold and the
// drain would panic — while different weights do replace all three.
func TestResolveKeepsLiveTenantState(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.EnableOverload(overload.Config{})
	weights := map[uint32]int{1: 3, 2: 1}
	if err := sys.EnableTenantIsolation(weights); err != nil {
		t.Fatal(err)
	}
	sys.UseEchoPeer()
	for tenant, port := range map[uint32]uint16{1: 5001, 2: 5002} {
		u := sys.AddUser(1000+tenant, fmt.Sprint("tenant", tenant))
		sys.AssignTenant(u, tenant)
		conn, err := sys.Dial(sys.Spawn(u, "app"), port, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			sys.At(norman.Duration(i)*norman.Microsecond, func() { conn.Send(512) })
		}
	}
	sys.RunFor(100 * norman.Microsecond)

	nic := sys.World().NIC
	sched, before := nic.TenantScheduler(), sys.TenantsStatus()
	if before[0].DDIOHits+before[0].DDIOMisses == 0 || before[0].RingBytes == 0 {
		t.Fatalf("the scenario must have moved the partition counters and charged a budget: %+v", before[0])
	}
	sys.EnableRecovery()
	if err := sys.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	sys.EnableHealth(health.Config{})
	sys.EnableLiveUpgrade(upgrade.Config{})
	sys.EnableTelemetry()
	if err := sys.TCSet(norman.QdiscSpec{Weights: map[uint32]float64{1: 8, 2: 1}, ClassOfUID: map[uint32]uint32{1001: 1, 1002: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableTenantIsolation(weights); err != nil {
		t.Fatal(err)
	}
	if nic.TenantScheduler() != sched {
		t.Error("an unrelated Enable* (or the same weights again) rebuilt the live tenant scheduler")
	}
	if after := sys.TenantsStatus(); !reflect.DeepEqual(after, before) {
		t.Errorf("tenant rows moved with no virtual time passing:\n before %+v\n after  %+v", before, after)
	}
	if q := nic.FlowCache().Quotas(); q[1] != 48 || q[2] != 16 {
		t.Errorf("the cache enabled later is not partitioned 3:1: %v", q)
	}
	sys.Run() // panics unless every frame in flight released what it held

	if err := sys.EnableTenantIsolation(map[uint32]int{1: 1, 2: 1}); err != nil {
		t.Fatal(err)
	}
	if nic.TenantScheduler() == sched {
		t.Error("new weights must replace the scheduler")
	}
	rows := sys.TenantsStatus()
	if q := nic.FlowCache().Quotas(); q[1] != 32 || q[2] != 32 || rows[0].Weight != 1 || rows[0].RingBudget != rows[1].RingBudget {
		t.Errorf("new weights must reach the cache quotas and the governor budgets: quotas %v rows %+v", q, rows)
	}
}
