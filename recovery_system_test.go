package norman_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"norman"
	"norman/internal/filter"
	"norman/internal/qos"
	"norman/internal/recovery"
	"norman/internal/sim"
)

// TestKOPISurvivesControlPlaneCrash is the PR's headline behavior: on KOPI
// the policies live on the NIC, so a control-plane crash freezes them in
// place — traffic keeps flowing (and keeps being filtered!) through the
// outage, mutations are refused with the typed error, and the restart
// reconciles cleanly.
func TestKOPISurvivesControlPlaneCrash(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.EnableRecovery()
	sys.UseEchoPeer()
	u := sys.AddUser(1000, "alice")
	app := sys.Spawn(u, "svc")
	conn, err := sys.Dial(app, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A drop rule that must keep filtering through the outage.
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{Proto: "udp", DstPort: 9999, Action: "drop"}); err != nil {
		t.Fatal(err)
	}
	got := 0
	conn.OnReceive(func(d norman.Delivery) { got++ })

	if err := sys.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	// Mutations fail typed while down.
	if err := sys.IPTablesAppend(norman.Input, norman.Rule{Action: "count"}); !errors.Is(err, norman.ErrControlPlaneDown) {
		t.Fatalf("append while down = %v", err)
	}
	if _, err := sys.Dial(app, 40001, 7); !errors.Is(err, norman.ErrControlPlaneDown) {
		t.Fatalf("dial while down = %v", err)
	}
	// The dataplane does not care: sends still echo back.
	for i := 0; i < 5; i++ {
		conn.Send(256)
	}
	sys.Run()
	if got != 5 {
		t.Fatalf("delivered %d/5 during control-plane outage", got)
	}

	rep, err := sys.RestartControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || !rep.InvariantsOK {
		t.Fatalf("restart not clean: %+v", rep)
	}
	if rep.Rejected < 2 {
		t.Fatalf("rejected = %d, want the outage mutations counted", rep.Rejected)
	}
	// The crash wiped the control plane's rule memory; the reconciler must
	// have rebuilt it from the journal, admin view included.
	rules := sys.IPTablesList()
	if len(rules) != 1 || rules[0].Rule.DstPort != 9999 {
		t.Fatalf("rules after recovery = %+v", rules)
	}
	// And mutations work again.
	if err := sys.IPTablesAppend(norman.Input, norman.Rule{Action: "count"}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelStackCrashStopsDataplane is the contrast: where the control
// plane IS the dataplane, the outage drops traffic on the floor.
func TestKernelStackCrashStopsDataplane(t *testing.T) {
	sys := norman.New(norman.KernelStack)
	sys.EnableRecovery()
	sys.UseEchoPeer()
	u := sys.AddUser(1000, "alice")
	app := sys.Spawn(u, "svc")
	conn, err := sys.Dial(app, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	conn.OnReceive(func(d norman.Delivery) { got++ })
	if err := sys.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		conn.Send(256)
	}
	sys.Run()
	if got != 0 {
		t.Fatalf("delivered %d during a kernel-stack outage, want 0", got)
	}
	if _, err := sys.RestartControlPlane(); err != nil {
		t.Fatal(err)
	}
	conn.Send(256)
	sys.Run()
	if got != 1 {
		t.Fatalf("delivered %d after restart, want 1", got)
	}
}

// TestAppendRefusesUnknownHook: a hook other than INPUT or OUTPUT is refused
// before it is journaled. An accepted "input" would land on some chain and in
// the journal under a name the reconciler's diff counts on neither, so a
// crash would lose the rule while the restart read clean.
func TestAppendRefusesUnknownHook(t *testing.T) {
	for _, a := range []norman.Architecture{norman.KOPI, norman.KernelStack} {
		t.Run(string(a), func(t *testing.T) {
			sys := norman.New(a)
			rec := sys.EnableRecovery()
			want := []recovery.RuleRecord{
				{Hook: norman.Input, Rule: norman.Rule{Proto: "udp", Action: "count"}},
				{Hook: norman.Output, Rule: norman.Rule{Proto: "udp", DstPort: 9999, Action: "drop"}},
			}
			for _, rr := range want {
				if err := sys.IPTablesAppend(rr.Hook, rr.Rule); err != nil {
					t.Fatal(err)
				}
			}
			var before bytes.Buffer
			if err := rec.Journal().Encode(&before); err != nil {
				t.Fatal(err)
			}
			for _, hook := range []string{"input", "FORWARD", ""} {
				if err := sys.IPTablesAppend(hook, norman.Rule{Action: "drop"}); err == nil {
					t.Fatalf("append on hook %q succeeded", hook)
				}
			}
			var after bytes.Buffer
			if err := rec.Journal().Encode(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("refused appends changed the journal:\n%s\nwant\n%s", after.Bytes(), before.Bytes())
			}

			if err := sys.CrashControlPlane(); err != nil {
				t.Fatal(err)
			}
			rep, err := sys.RestartControlPlane()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean || !rep.InvariantsOK || rep.Rules != len(want) {
				t.Fatalf("restart report = %+v", rep)
			}
			var got []recovery.RuleRecord
			for _, rs := range sys.IPTablesList() {
				got = append(got, rs.RuleRecord)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rules after restart = %+v, want %+v", got, want)
			}
		})
	}
}

// TestRejectedPerOutage pins Report.Rejected to the outage it reports:
// across two crash/restart cycles each restart must count only its own
// outage's refused mutations, not the lifetime total.
func TestRejectedPerOutage(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.EnableRecovery()
	sys.UseEchoPeer()

	if err := sys.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sys.IPTablesAppend(norman.Input, norman.Rule{Action: "count"}); !errors.Is(err, norman.ErrControlPlaneDown) {
			t.Fatalf("append while down = %v", err)
		}
	}
	rep, err := sys.RestartControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 2 {
		t.Fatalf("first outage rejected = %d, want 2", rep.Rejected)
	}

	if err := sys.CrashControlPlane(); err != nil {
		t.Fatal(err)
	}
	if err := sys.IPTablesAppend(norman.Input, norman.Rule{Action: "count"}); !errors.Is(err, norman.ErrControlPlaneDown) {
		t.Fatalf("append while down = %v", err)
	}
	rep, err = sys.RestartControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 {
		t.Fatalf("second outage rejected = %d, want 1 (not the lifetime total)", rep.Rejected)
	}
}

// TestJournalPersistsEpochAcrossIncarnations models three normand
// incarnations over one persisted journal, with the persistence hook
// installed before recovery — the attachJournal order. Recovery appends the
// epoch-boundary entry through the hook, so the third incarnation finds
// inc1 entries, an epoch, then inc2's t=0 entries, and Verify accepts the
// clock restarting. If the epoch were not persisted, this load would fail
// with "journal time goes backward".
func TestJournalPersistsEpochAcrossIncarnations(t *testing.T) {
	// Incarnation 1: hook installed from the start, mutations at t>0.
	var file bytes.Buffer
	persist := func(e recovery.Entry) {
		line, err := recovery.EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		file.Write(line)
	}
	sys1 := norman.New(norman.KOPI)
	sys1.EnableRecovery().Journal().SetOnAppend(persist)
	sys1.UseEchoPeer()
	sys1.RunFor(5 * sim.Millisecond)
	u := sys1.AddUser(1000, "alice")
	if _, err := sys1.Dial(sys1.Spawn(u, "svc"), 40000, 7); err != nil {
		t.Fatal(err)
	}
	if err := sys1.IPTablesAppend(norman.Output, norman.Rule{Proto: "udp", DstPort: 9999, Action: "drop"}); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2 (SIGKILL'd inc1): hook installed *before* recovery, as
	// attachJournal does, then fresh t=0 mutations after the replay.
	entries, err := recovery.Decode(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sys2 := norman.New(norman.KOPI)
	sys2.EnableRecovery().Journal().SetOnAppend(persist)
	sys2.UseEchoPeer()
	if _, err := sys2.RecoverFromJournal(entries); err != nil {
		t.Fatal(err)
	}
	u2 := sys2.AddUser(1000, "alice")
	if _, err := sys2.Dial(sys2.Spawn(u2, "svc"), 40001, 7); err != nil {
		t.Fatal(err)
	}

	// Incarnation 3: the persisted file must verify and replay — both
	// previous incarnations' connections stale, the rule still intended.
	entries, err = recovery.Decode(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sys3 := norman.New(norman.KOPI)
	sys3.UseEchoPeer()
	rep, err := sys3.RecoverFromJournal(entries)
	if err != nil {
		t.Fatalf("third incarnation refused the journal: %v", err)
	}
	if rep.Stale != 2 {
		t.Fatalf("stale = %d, want both dead incarnations' conns", rep.Stale)
	}
	if !rep.InvariantsOK {
		t.Fatalf("invariants: %+v", rep.Invariants)
	}
	rules := sys3.IPTablesList()
	if len(rules) != 1 || rules[0].Rule.DstPort != 9999 {
		t.Fatalf("rules after second cold start = %+v", rules)
	}
}

// TestRecoverFromJournalColdStart models a normand SIGKILL + restart: the
// journal survives on disk (here: encoded bytes), the new incarnation loads
// it, marks the epoch, reinstalls policies, and reports the old
// connections stale rather than resurrecting them — on every architecture
// whose kernel can hold a qdisc, wherever that architecture keeps it.
func TestRecoverFromJournalColdStart(t *testing.T) {
	for _, archName := range []norman.Architecture{norman.KOPI, norman.KernelStack, norman.Sidecar} {
		t.Run(string(archName), func(t *testing.T) { coldStart(t, archName) })
	}
}

func coldStart(t *testing.T, archName norman.Architecture) {
	// First incarnation journals a rule, a qdisc and a connection.
	sys1 := norman.New(archName)
	rec1 := sys1.EnableRecovery()
	sys1.UseEchoPeer()
	// Advance virtual time before mutating: the second incarnation's clock
	// restarts at zero, so its epoch entry lands "before" these journal
	// timestamps — Verify must treat the epoch as a time-baseline reset.
	sys1.RunFor(5 * sim.Millisecond)
	u := sys1.AddUser(1000, "alice")
	app := sys1.Spawn(u, "svc")
	if _, err := sys1.Dial(app, 40000, 7); err != nil {
		t.Fatal(err)
	}
	if err := sys1.IPTablesAppend(norman.Output, norman.Rule{Proto: "udp", DstPort: 9999, Action: "drop"}); err != nil {
		t.Fatal(err)
	}
	if err := sys1.TCSet(norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 3}, ClassOfUID: map[uint32]uint32{1000: 1}}); err != nil {
		t.Fatal(err)
	}
	if sys1.Qdisc() == nil {
		t.Fatal("System.Qdisc() is nil right after a successful TCSet")
	}
	var persisted bytes.Buffer
	if err := rec1.Journal().Encode(&persisted); err != nil {
		t.Fatal(err)
	}

	// SIGKILL; the second incarnation is a fresh world with the old log.
	entries, err := recovery.Decode(&persisted)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := norman.New(archName)
	sys2.UseEchoPeer()
	rep, err := sys2.RecoverFromJournal(entries)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale != 1 {
		t.Fatalf("stale = %d, want the pre-epoch conn", rep.Stale)
	}
	if rep.Conns != 0 {
		t.Fatalf("conns = %d, want none resurrected", rep.Conns)
	}
	if !rep.InvariantsOK {
		t.Fatalf("invariants: %+v", rep.Invariants)
	}
	if q := sys2.Qdisc(); q == nil || q.Spec().Kind != "wfq" {
		t.Fatalf("qdisc after cold start = %v, want the journaled wfq", q)
	}
	rules := sys2.IPTablesList()
	if len(rules) != 1 || rules[0].Rule.DstPort != 9999 {
		t.Fatalf("rules after cold start = %+v", rules)
	}
	// The reinstalled drop rule must actually filter.
	app2 := sys2.Spawn(sys2.AddUser(1000, "alice"), "svc")
	c2, err := sys2.Dial(app2, 40002, 9999)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	c2.OnReceive(func(norman.Delivery) { got++ })
	c2.Send(128)
	sys2.Run()
	if got != 0 {
		t.Fatal("recovered drop rule did not filter")
	}
}

// TestRecoverFromJournalRestoresTenants: the tenant split is journaled like
// any other policy, so a fresh System replaying the journal gets the same
// isolation back — the NIC scheduler's weights, the DDIO partition and the
// flow cache's quotas — through the one tenants repair, and asking for the
// same split again afterwards journals nothing.
func TestRecoverFromJournalRestoresTenants(t *testing.T) {
	weights := map[uint32]int{1: 7, 2: 1}
	sys1 := norman.New(norman.KOPI)
	rec1 := sys1.EnableRecovery()
	if err := sys1.EnableFlowCache(256); err != nil {
		t.Fatal(err)
	}
	if err := sys1.EnableTenantIsolation(weights); err != nil {
		t.Fatal(err)
	}
	var persisted bytes.Buffer
	if err := rec1.Journal().Encode(&persisted); err != nil {
		t.Fatal(err)
	}
	entries, err := recovery.Decode(&persisted)
	if err != nil {
		t.Fatal(err)
	}

	sys2 := norman.New(norman.KOPI)
	if err := sys2.EnableFlowCache(256); err != nil {
		t.Fatal(err)
	}
	rep, err := sys2.RecoverFromJournal(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || !rep.InvariantsOK {
		t.Fatalf("clean=%v invariants=%+v", rep.Clean, rep.Invariants)
	}
	if len(rep.Actions) != 1 || rep.Actions[0].Kind != "tenants.reinstall" {
		t.Fatalf("divergences %q, actions %+v; want one tenants.reinstall", rep.Divergences, rep.Actions)
	}
	n1, n2 := sys1.World().NIC, sys2.World().NIC
	if ts := n2.TenantScheduler(); ts == nil || !maps.Equal(ts.Weights(), weights) {
		t.Fatalf("scheduler after replay = %v, want weights %v", ts, weights)
	}
	if got, want := sys2.World().LLC.TenantDMAStats(), sys1.World().LLC.TenantDMAStats(); len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("DDIO partition after replay = %+v, want %+v", got, want)
	}
	if got, want := n2.FlowCache().Quotas(), n1.FlowCache().Quotas(); len(want) != 2 || !maps.Equal(got, want) {
		t.Fatalf("flow-cache quotas after replay = %v, want %v", got, want)
	}
	before := sys2.Recovery().Journal().Len()
	if err := sys2.EnableTenantIsolation(weights); err != nil {
		t.Fatal(err)
	}
	if after := sys2.Recovery().Journal().Len(); after != before {
		t.Fatalf("the standing split asked again journaled %d entries", after-before)
	}
}

// TestRestartRepairsWeightDivergence: a live WFQ whose class weights drifted
// from the journal during an outage is a qdisc divergence the restart
// repairs, not a failed invariant left standing. On kopi the NIC keeps
// running the scheduler through the crash, so the drift is a weight; the
// kernel stack's crash takes its scheduler with it, so there the divergence
// is the whole qdisc.
func TestRestartRepairsWeightDivergence(t *testing.T) {
	for _, tc := range []struct {
		arch   norman.Architecture
		tamper bool
		want   string
	}{
		{norman.KOPI, true, "qdisc: live {Kind:wfq Weights:map[1:1 2:1] ClassOfUID:map[] RateBps:0 BurstBytes:0 Limit:4096}, " +
			"intended {Kind:wfq Weights:map[1:4 2:1] ClassOfUID:map[] RateBps:0 BurstBytes:0 Limit:4096}"},
		{norman.KernelStack, false, "qdisc: intended wfq, live none"},
	} {
		t.Run(string(tc.arch), func(t *testing.T) {
			sys := norman.New(tc.arch)
			sys.EnableRecovery()
			sys.UseEchoPeer()
			if err := sys.TCSet(norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 4, 2: 1}}); err != nil {
				t.Fatal(err)
			}
			if err := sys.CrashControlPlane(); err != nil {
				t.Fatal(err)
			}
			if tc.tamper {
				sys.Qdisc().(*qos.WFQ).SetWeight(1, 1)
			}
			rep, err := sys.RestartControlPlane()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Divergences) != 1 || rep.Divergences[0] != tc.want {
				t.Fatalf("divergences = %q, want [%q]", rep.Divergences, tc.want)
			}
			if len(rep.Actions) != 1 || rep.Actions[0].Kind != "qdisc.reinstall" {
				t.Fatalf("actions = %+v, want one qdisc.reinstall", rep.Actions)
			}
			if !rep.Clean || !rep.InvariantsOK {
				t.Fatalf("clean=%v invariants=%+v", rep.Clean, rep.Invariants)
			}
			if w := sys.Qdisc().Spec().Weights; w[1] != 4 || w[2] != 1 {
				t.Fatalf("live weights after repair = %v, want {1:4 2:1}", w)
			}
		})
	}
}

// TestRestartRepairsMutatedRule: a live chain holding as many rules as the
// journal, one with the wrong port, is a rules divergence the restart
// repairs. Rules are compared as records, not counted.
func TestRestartRepairsMutatedRule(t *testing.T) {
	for _, archName := range []norman.Architecture{norman.KOPI, norman.KernelStack} {
		t.Run(string(archName), func(t *testing.T) {
			sys := norman.New(archName)
			sys.EnableRecovery()
			sys.UseEchoPeer()
			journaled := norman.Rule{Proto: "udp", DstPort: 9999, Action: "drop"}
			if err := sys.IPTablesAppend(norman.Output, journaled); err != nil {
				t.Fatal(err)
			}
			if err := sys.CrashControlPlane(); err != nil {
				t.Fatal(err)
			}
			// The crash emptied the chain; it comes back holding the rule with
			// another port.
			mutant := journaled
			mutant.DstPort = 8888
			fr, err := mutant.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Arch().InstallRule(filter.HookOutput, fr); err != nil {
				t.Fatal(err)
			}
			rep, err := sys.RestartControlPlane()
			if err != nil {
				t.Fatal(err)
			}
			want := "rules: OUTPUT: live [-A OUTPUT -p udp --dport 8888 -j DROP], intended [-A OUTPUT -p udp --dport 9999 -j DROP]"
			if len(rep.Divergences) != 1 || rep.Divergences[0] != want {
				t.Fatalf("divergences = %q, want [%q]", rep.Divergences, want)
			}
			if len(rep.Actions) != 1 || rep.Actions[0].Kind != "rules.reinstall" {
				t.Fatalf("actions = %+v, want one rules.reinstall", rep.Actions)
			}
			if !rep.Clean || !rep.InvariantsOK {
				t.Fatalf("clean=%v invariants=%+v", rep.Clean, rep.Invariants)
			}
			if rules := sys.IPTablesList(); len(rules) != 1 || rules[0].DstPort != 9999 {
				t.Fatalf("rules after repair = %+v, want the journaled port 9999", rules)
			}
		})
	}
}

// TestRestartRepairsQdiscDrift: on kopi the NIC keeps running its scheduler
// through a crash, so any field of the live qdisc can drift from the journal
// during the outage — a TBF's rate, a DRR quantum, the limit — and each is a
// qdisc divergence the restart repairs back to the journaled record.
func TestRestartRepairsQdiscDrift(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   norman.QdiscSpec
		tamper func(sys *norman.System) error
	}{
		{"tbf-rate", norman.QdiscSpec{Kind: "tbf", RateBps: 1e6, BurstBytes: 3000, Limit: 64}, func(sys *norman.System) error {
			return sys.Arch().SetQdisc(qos.NewTBF(64, 2e6, 3000), nil)
		}},
		{"drr-quantum", norman.QdiscSpec{Kind: "drr", Weights: map[uint32]float64{1: 3000, 2: 1500}}, func(sys *norman.System) error {
			sys.Qdisc().(*qos.DRR).SetQuantum(1, 1500)
			return nil
		}},
		{"wfq-limit", norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 4}, Limit: 128}, func(sys *norman.System) error {
			q := qos.NewWFQ(256)
			q.SetWeight(1, 4)
			return sys.Arch().SetQdisc(q, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := norman.New(norman.KOPI)
			sys.EnableRecovery()
			sys.UseEchoPeer()
			if err := sys.TCSet(tc.spec); err != nil {
				t.Fatal(err)
			}
			if err := sys.CrashControlPlane(); err != nil {
				t.Fatal(err)
			}
			if err := tc.tamper(sys); err != nil {
				t.Fatal(err)
			}
			rep, err := sys.RestartControlPlane()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Divergences) != 1 || !strings.HasPrefix(rep.Divergences[0], "qdisc: live ") {
				t.Fatalf("divergences = %q, want one qdisc divergence", rep.Divergences)
			}
			if len(rep.Actions) != 1 || rep.Actions[0].Kind != "qdisc.reinstall" {
				t.Fatalf("actions = %+v, want one qdisc.reinstall", rep.Actions)
			}
			if !rep.Clean || !rep.InvariantsOK {
				t.Fatalf("clean=%v invariants=%+v", rep.Clean, rep.Invariants)
			}
			built, _, err := qos.Build(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sys.Qdisc().Spec(), built.Spec(); !reflect.DeepEqual(got, want) {
				t.Fatalf("live qdisc after repair = %+v, want %+v", got, want)
			}
		})
	}
}

// TestPrioRestartsClean: a journaled prio qdisc reconciles like every other
// kind. On kopi it survives the crash and the restart finds nothing to do;
// the kernel stack's crash takes it, and the restart reinstalls it; sidecar
// cold-starts it from the journal.
func TestPrioRestartsClean(t *testing.T) {
	spec := norman.QdiscSpec{Kind: "prio", Limit: 64, ClassOfUID: map[uint32]uint32{1000: 1}}
	for _, tc := range []struct {
		arch    norman.Architecture
		repairs int
	}{{norman.KOPI, 0}, {norman.KernelStack, 1}} {
		t.Run(string(tc.arch), func(t *testing.T) {
			sys := norman.New(tc.arch)
			sys.EnableRecovery()
			sys.UseEchoPeer()
			if err := sys.TCSet(spec); err != nil {
				t.Fatal(err)
			}
			if err := sys.CrashControlPlane(); err != nil {
				t.Fatal(err)
			}
			rep, err := sys.RestartControlPlane()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean || !rep.InvariantsOK || len(rep.Actions) != tc.repairs {
				t.Fatalf("clean=%v divergences %q actions %+v invariants %+v; want clean after %d repairs",
					rep.Clean, rep.Divergences, rep.Actions, rep.Invariants, tc.repairs)
			}
		})
	}
	t.Run(string(norman.Sidecar), func(t *testing.T) {
		sys1 := norman.New(norman.Sidecar)
		rec1 := sys1.EnableRecovery()
		if err := sys1.TCSet(spec); err != nil {
			t.Fatal(err)
		}
		var persisted bytes.Buffer
		if err := rec1.Journal().Encode(&persisted); err != nil {
			t.Fatal(err)
		}
		entries, err := recovery.Decode(&persisted)
		if err != nil {
			t.Fatal(err)
		}
		sys2 := norman.New(norman.Sidecar)
		rep, err := sys2.RecoverFromJournal(entries)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean || !rep.InvariantsOK {
			t.Fatalf("clean=%v divergences %q invariants %+v", rep.Clean, rep.Divergences, rep.Invariants)
		}
		if q := sys2.Qdisc(); q == nil || q.Spec().Kind != "prio" {
			t.Fatalf("qdisc after cold start = %v, want the journaled prio", q)
		}
	})
}

// TestPolicyIsTheJournalFold: the policy the dataplane reads back is the
// journal's fold in canonical form. Seeded sequences of appends (some abort:
// an unknown proto or action, any rule on bypass), flushes, qdisc sets of
// every kind (an unknown one aborts), tenant splits (three tenants cannot
// share a 2-way DDIO region: that one aborts) and crash/restart cycles run on
// kopi, bypass and the kernel stack. After every step LivePolicy equals
// Replay(journal).Canonical(), except that the rules read empty while the
// control plane is down, and so does the kernel stack's qdisc, which its
// crash takes with it; every restart comes back clean.
func TestPolicyIsTheJournalFold(t *testing.T) {
	protos := []string{"", "udp", "tcp", "sctp"}
	actions := []string{"", "accept", "drop", "count", "mark", "bogus"}
	kinds := []string{"wfq", "drr", "prio", "pfifo", "tbf", "cbq"}
	for _, archName := range []norman.Architecture{norman.KOPI, norman.Bypass, norman.KernelStack} {
		for seed := int64(1); seed <= 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			sys := norman.New(archName)
			rec := sys.EnableRecovery()
			sys.UseEchoPeer()
			down := false
			for step := 0; step < 40; step++ {
				where := fmt.Sprintf("%s seed %d step %d", archName, seed, step)
				// Aborted and refused verbs are part of the sequence: errors are
				// expected and the journal fold must account for them.
				switch op := r.Intn(11); {
				case op < 5:
					rule := norman.Rule{Proto: protos[r.Intn(len(protos))], DstPort: uint16(r.Intn(3) * 1000),
						Action: actions[r.Intn(len(actions))], Mark: uint32(r.Intn(2))}
					if r.Intn(3) == 0 {
						rule.OwnerUID, rule.OwnerCmd = norman.UID(uint32(1000+r.Intn(2))), "svc"
					}
					hook := []string{norman.Input, norman.Output}[r.Intn(2)]
					_ = sys.IPTablesAppend(hook, rule)
				case op < 6:
					_ = sys.IPTablesFlush()
				case op < 8:
					spec := norman.QdiscSpec{Kind: kinds[r.Intn(len(kinds))], Limit: 64 * r.Intn(2), RateBps: 1e9, BurstBytes: 3000,
						Weights:    map[uint32]float64{1: float64(1 + r.Intn(8)), 2: float64(1 + r.Intn(8))},
						ClassOfUID: map[uint32]uint32{1000: 1, 1001: 2}}
					_ = sys.TCSet(spec)
				case op < 9:
					weights := map[uint32]int{}
					for id := 1 + r.Intn(3); id > 0; id-- {
						weights[uint32(id)] = 1 + r.Intn(4)
					}
					_ = sys.EnableTenantIsolation(weights)
				case down:
					rep, err := sys.RestartControlPlane()
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Clean || !rep.InvariantsOK {
						t.Fatalf("%s: restart clean=%v, divergences %q, invariants %+v", where, rep.Clean, rep.Divergences, rep.Invariants)
					}
					down = false
				default:
					if err := sys.CrashControlPlane(); err != nil {
						t.Fatal(err)
					}
					down = true
				}
				in, err := recovery.Replay(rec.Journal().Entries())
				if err != nil {
					t.Fatal(err)
				}
				want := in.Canonical()
				if down {
					want.Rules = nil
					if archName == norman.KernelStack {
						want.Qdisc = nil
					}
				}
				if got := sys.LivePolicy(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: live policy %+v, canonical journal fold %+v", where, got, want)
				}
			}
		}
	}
}
