package recovery

import (
	"bytes"
	"errors"
	"testing"

	"norman/internal/kernel"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/timing"
)

func flow(sport uint16) packet.FlowKey {
	return packet.FlowKey{Src: 0x0a000001, Dst: 0x0a000002, SrcPort: sport, DstPort: 80, Proto: packet.ProtoUDP}
}

func TestJournalAppendVerifyEncode(t *testing.T) {
	j := NewJournal()
	e1 := j.Append(Entry{Op: OpRuleAppend, Rule: &RuleRecord{Hook: "INPUT", Rule: Rule{Action: "drop"}}})
	if e1.Seq != 1 {
		t.Fatalf("seq = %d, want 1", e1.Seq)
	}
	open := j.Append(Entry{Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(1000), PID: 7, UID: 1000}})
	j.Append(Entry{Op: OpConnBind, Ref: open.Seq, ConnID: 3})
	j.Append(Entry{Op: OpQdiscSet, Qdisc: &QdiscRecord{Kind: "wfq", Weights: map[uint32]float64{1: 2}}})
	if err := j.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	var buf bytes.Buffer
	if err := j.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != j.Len() {
		t.Fatalf("round trip: %d entries, want %d", len(got), j.Len())
	}
	j2 := NewJournal()
	if err := j2.Load(got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	next := j2.Append(Entry{Op: OpRuleFlush})
	if next.Seq != uint64(j.Len())+1 {
		t.Fatalf("seq after load = %d", next.Seq)
	}
}

// TestJournalEpochResetsTimeBaseline: entries persisted by a dead
// incarnation carry its virtual clock; the restarted daemon's clock begins
// at zero again, so the epoch it journals is "earlier" than the old tail.
// Verify must treat OpEpoch as a time-baseline reset, not a violation —
// while still rejecting backward time within one incarnation.
func TestJournalEpochResetsTimeBaseline(t *testing.T) {
	j := NewJournal()
	j.Append(Entry{At: 5 * sim.Millisecond, Op: OpRuleAppend, Rule: &RuleRecord{Hook: "OUTPUT", Rule: Rule{Action: "drop"}}})
	j.Append(Entry{At: 0, Op: OpEpoch}) // cold start: clock restarted
	j.Append(Entry{At: 10 * sim.Microsecond, Op: OpRuleFlush})
	if err := j.Verify(); err != nil {
		t.Fatalf("epoch must reset the time baseline: %v", err)
	}
	j.Append(Entry{At: 5 * sim.Microsecond, Op: OpRuleFlush}) // backward, same incarnation
	if err := j.Verify(); err == nil {
		t.Fatal("backward time within an incarnation must fail Verify")
	}
}

func TestJournalDropBreaksConsistency(t *testing.T) {
	j := NewJournal()
	j.Append(Entry{Op: OpRuleAppend, Rule: &RuleRecord{Hook: "INPUT"}})
	bind := j.Append(Entry{Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(1)}})
	j.Append(Entry{Op: OpConnBind, Ref: bind.Seq, ConnID: 9})
	if !j.Drop(bind.Seq) {
		t.Fatal("Drop did not find the entry")
	}
	// The torn record surfaces at replay: the bind references a seq that is
	// gone.
	if _, err := Replay(j.Entries()); err == nil {
		t.Fatal("Replay accepted a journal with a torn conn.open")
	}
}

func TestReplaySemantics(t *testing.T) {
	j := NewJournal()
	j.Append(Entry{Op: OpRuleAppend, Rule: &RuleRecord{Hook: "INPUT", Rule: Rule{Action: "drop"}}})
	j.Append(Entry{Op: OpRuleFlush})
	j.Append(Entry{Op: OpRuleAppend, Rule: &RuleRecord{Hook: "OUTPUT", Rule: Rule{Action: "accept"}}})
	aborted := j.Append(Entry{Op: OpRuleAppend, Rule: &RuleRecord{Hook: "OUTPUT", Rule: Rule{Action: "drop"}}})
	j.Append(Entry{Op: OpAbort, Ref: aborted.Seq})

	preEpoch := j.Append(Entry{Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(1), PID: 1}})
	j.Append(Entry{Op: OpConnBind, Ref: preEpoch.Seq, ConnID: 1})
	j.Append(Entry{Op: OpEpoch})

	o2 := j.Append(Entry{Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(2), PID: 2}})
	j.Append(Entry{Op: OpConnBind, Ref: o2.Seq, ConnID: 2})
	o3 := j.Append(Entry{Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(3), PID: 3}})
	j.Append(Entry{Op: OpConnBind, Ref: o3.Seq, ConnID: 3})
	j.Append(Entry{Op: OpConnClose, ConnID: 3})
	j.Append(Entry{Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(4), PID: 4}}) // crash mid-setup
	j.Append(Entry{Op: OpQdiscSet, Qdisc: &QdiscRecord{Kind: "drr"}})
	j.Append(Entry{Op: OpQdiscSet, Qdisc: &QdiscRecord{Kind: "wfq", Weights: map[uint32]float64{1: 3}}})

	in, err := Replay(j.Entries())
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Rules) != 1 || in.Rules[0].Hook != "OUTPUT" || in.Rules[0].Action != "accept" {
		t.Fatalf("rules = %+v (flush/abort not honored)", in.Rules)
	}
	if in.Qdisc == nil || in.Qdisc.Kind != "wfq" {
		t.Fatalf("qdisc = %+v, want last write wins", in.Qdisc)
	}
	if len(in.Conns) != 1 || in.Conns[2] == nil {
		t.Fatalf("conns = %+v, want only conn 2", in.Conns)
	}
	if len(in.Stale) != 1 || !in.Stale[0].Stale || in.Stale[0].ID != 1 {
		t.Fatalf("stale = %+v, want pre-epoch conn 1", in.Stale)
	}
	if len(in.Incomplete) != 1 || in.Incomplete[0].Rec.PID != 4 {
		t.Fatalf("incomplete = %+v", in.Incomplete)
	}
}

func TestGateAndCrashLifecycle(t *testing.T) {
	m := NewManager()
	if err := m.Gate(); err != nil {
		t.Fatalf("Gate while up: %v", err)
	}
	m.Crash(sim.Time(1000))
	if !m.Down() {
		t.Fatal("not down after Crash")
	}
	if err := m.Gate(); !errors.Is(err, ErrControlPlaneDown) {
		t.Fatalf("Gate while down = %v, want ErrControlPlaneDown", err)
	}
	if m.RejectedWhileDown != 1 {
		t.Fatalf("RejectedWhileDown = %d", m.RejectedWhileDown)
	}
}

// fakeApplier records what the reconciler asked it to reapply.
type fakeApplier struct {
	rules   [][]RuleRecord
	qdiscs  []QdiscRecord
	conns   []uint64
	steers  []uint64
	connErr error

	kern *kernel.Kernel
	n    *nic.NIC
}

func (f *fakeApplier) ReinstallRules(rules []RuleRecord) error {
	f.rules = append(f.rules, rules)
	return nil
}
func (f *fakeApplier) ReinstallQdisc(q QdiscRecord) error { f.qdiscs = append(f.qdiscs, q); return nil }
func (f *fakeApplier) RestoreConn(rec ConnRecord, id uint64) error {
	if f.connErr != nil {
		return f.connErr
	}
	f.conns = append(f.conns, id)
	if f.kern != nil {
		if _, err := f.kern.RestoreConn(id, rec.PID, rec.Flow, 0); err != nil {
			return err
		}
	}
	return nil
}
func (f *fakeApplier) RepairSteering(rec ConnRecord, id uint64) error {
	f.steers = append(f.steers, id)
	if f.n != nil {
		return f.n.SteerFlow(rec.Flow, id)
	}
	return nil
}

func testWorld(t *testing.T) (*nic.NIC, *kernel.Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	n := nic.New(nic.Config{Engine: eng, Model: timing.Default(), RingSize: 8, SRAMBudget: 1 << 20})
	k := kernel.New(eng)
	return n, k
}

// TestRestartRepairsInjectedDivergence is the acceptance-criteria test: an
// injected NIC/kernel divergence (dropped steering entry, lost kernel conn
// row, unloaded pipeline program) is detected, repaired, and the re-diff
// plus invariants come back clean.
func TestRestartRepairsInjectedDivergence(t *testing.T) {
	n, k := testWorld(t)
	m := NewManager()

	// Intent: one INPUT rule, wfq qdisc, two connections.
	m.Record(0, Entry{Op: OpRuleAppend, Rule: &RuleRecord{Hook: "INPUT", Rule: Rule{Action: "drop", DstPort: 9999}}})
	wfq := qos.NewWFQ(64)
	wfq.SetWeight(1, 3)
	m.Record(0, Entry{Op: OpQdiscSet, Qdisc: &QdiscRecord{Kind: "wfq", Weights: map[uint32]float64{1: 3}}})

	prog, err := overlay.Assemble("input-chain", "pass\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.LoadProgram(nic.Ingress, prog); err != nil {
		t.Fatal(err)
	}
	n.SetScheduler(wfq)

	proc := k.Spawn(1000, "svc")
	for i, fl := range []packet.FlowKey{flow(1000), flow(1001)} {
		ci, err := k.RegisterConn(proc, fl)
		if err != nil {
			t.Fatal(err)
		}
		open := m.Record(0, Entry{Op: OpConnOpen, Conn: &ConnRecord{Flow: fl, PID: proc.PID, UID: 1000}})
		m.Record(0, Entry{Op: OpConnBind, Ref: open.Seq, ConnID: ci.ID})
		if _, err := n.OpenConn(ci.ID, packet.Meta{}, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.SteerFlow(fl, ci.ID); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	n.CommitConfig(0)

	rules := 1
	live := Live{
		NIC: n, Kern: k, RingPerConn: true,
		RuleCount: func(hook string) int {
			if hook == "INPUT" {
				return rules
			}
			return 0
		},
		Qdisc: func() qos.Qdisc { return n.Scheduler() },
	}
	ap := &fakeApplier{kern: k, n: n}

	// Inject divergence: steering entry lost, kernel row lost, program gone.
	m.Crash(sim.Time(100))
	if !n.DropSteering(flow(1000)) {
		t.Fatal("DropSteering missed")
	}
	if err := k.UnregisterConn(2); err != nil {
		t.Fatal(err)
	}
	n.UnloadProgram(nic.Ingress)

	rep, err := m.Restart(sim.Time(200), live, ap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) < 3 {
		t.Fatalf("divergences = %v, want steering + kernel conn + program", rep.Divergences)
	}
	if !rep.Clean {
		t.Fatalf("re-diff not clean: %+v", rep)
	}
	if !rep.InvariantsOK {
		t.Fatalf("invariants failed: %+v", rep.Invariants)
	}
	if len(ap.conns) != 1 || ap.conns[0] != 2 {
		t.Fatalf("RestoreConn calls = %v", ap.conns)
	}
	// The whole-config snapshot restore must have been preferred for NIC
	// state (program + steering in one action).
	var sawRestore bool
	for _, a := range rep.Actions {
		if a.Kind == "nic.restore_config" {
			sawRestore = true
		}
	}
	if !sawRestore {
		t.Fatalf("actions = %+v, want nic.restore_config", rep.Actions)
	}
	if n.Machine(nic.Ingress) == nil {
		t.Fatal("ingress program not restored")
	}
	if id, ok := n.SteeredConn(flow(1000)); !ok || id != 1 {
		t.Fatal("steering not restored")
	}
	if rep.RecoveryTime <= 0 {
		t.Fatal("recovery time not modeled")
	}
	if m.DivergencesFound == 0 || m.RepairsApplied == 0 {
		t.Fatal("counters not updated")
	}
}
