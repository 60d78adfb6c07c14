package recovery

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"norman/internal/packet"
	"norman/internal/sim"
)

// compactFixture builds a journal with plenty of dead weight: rules that get
// flushed, a superseded qdisc and tenant split, aborted mutations, closed
// connections, an incomplete setup, and a pre-epoch (stale) connection — plus
// the live state compaction must preserve exactly.
func compactFixture() []Entry {
	j := NewJournal()
	at := func(us int) sim.Duration { return sim.Duration(us) * sim.Microsecond }
	flow := func(port uint16) packet.FlowKey {
		return packet.FlowKey{Src: packet.MakeIP(10, 0, 0, 1), Dst: packet.MakeIP(10, 0, 0, 2),
			SrcPort: port, DstPort: 7, Proto: packet.ProtoUDP}
	}

	// A previous incarnation: its connection goes stale at the epoch below.
	j.Append(Entry{At: at(1), Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(1000), PID: 9, UID: 9}})
	j.Append(Entry{At: at(1), Op: OpConnBind, Ref: 1, ConnID: 900})
	j.Append(Entry{At: 0, Op: OpEpoch})

	// Rules: two survive, two are flushed away, one is aborted.
	j.Append(Entry{At: at(2), Op: OpRuleAppend, Rule: &RuleRecord{Hook: "INPUT", Rule: Rule{DstPort: 22, Action: "drop"}}})
	j.Append(Entry{At: at(3), Op: OpRuleAppend, Rule: &RuleRecord{Hook: "OUTPUT", Rule: Rule{DstPort: 23, Action: "drop"}}})
	j.Append(Entry{At: at(4), Op: OpRuleFlush})
	j.Append(Entry{At: at(5), Op: OpRuleAppend, Rule: &RuleRecord{Hook: "INPUT", Rule: Rule{DstPort: 80, Action: "accept"}}})
	bad := j.Append(Entry{At: at(6), Op: OpRuleAppend, Rule: &RuleRecord{Hook: "INPUT", Rule: Rule{DstPort: 81, Action: "drop"}}})
	j.Append(Entry{At: at(6), Op: OpAbort, Ref: bad.Seq})
	j.Append(Entry{At: at(7), Op: OpRuleAppend, Rule: &RuleRecord{Hook: "OUTPUT", Rule: Rule{SrcPort: 443, Action: "accept"}}})

	// Qdiscs: the second wins.
	j.Append(Entry{At: at(8), Op: OpQdiscSet, Qdisc: &QdiscRecord{Kind: "pfifo", Limit: 64}})
	j.Append(Entry{At: at(9), Op: OpQdiscSet, Qdisc: &QdiscRecord{Kind: "wfq", Weights: map[uint32]float64{1: 3, 2: 1}}})

	// Tenant splits: the second wins, the third is aborted.
	j.Append(Entry{At: at(9), Op: OpTenantSet, Tenants: map[uint32]int{1: 1, 2: 1}})
	j.Append(Entry{At: at(9), Op: OpTenantSet, Tenants: map[uint32]int{1: 7, 2: 1}})
	split := j.Append(Entry{At: at(9), Op: OpTenantSet, Tenants: map[uint32]int{1: 1, 2: 1, 3: 1}})
	j.Append(Entry{At: at(9), Op: OpAbort, Ref: split.Seq})

	// Connections: one live, one closed, one incomplete (open, never bound).
	open1 := j.Append(Entry{At: at(10), Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(2000), PID: 10, UID: 100, Command: "svc"}})
	j.Append(Entry{At: at(10), Op: OpConnBind, Ref: open1.Seq, ConnID: 41})
	open2 := j.Append(Entry{At: at(11), Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(2001), PID: 11, UID: 100}})
	j.Append(Entry{At: at(11), Op: OpConnBind, Ref: open2.Seq, ConnID: 42})
	j.Append(Entry{At: at(12), Op: OpConnClose, ConnID: 42})
	j.Append(Entry{At: at(13), Op: OpConnOpen, Conn: &ConnRecord{Flow: flow(2002), PID: 12, UID: 100}})

	// Upgrade intent rides along; replay ignores it, compaction drops it.
	j.Append(Entry{At: at(14), Op: OpUpgrade, Ref: 2})
	return j.Entries()
}

// TestCompactReplayEquivalence is the compaction contract: the compacted
// journal passes Verify and replays to the same reconciled state — same
// rules in order, same final qdisc and tenant split, same live bound
// connections under the same ids — while the dead entries are gone.
func TestCompactReplayEquivalence(t *testing.T) {
	entries := compactFixture()
	before, err := Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Compact(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) >= len(entries) {
		t.Fatalf("compaction must shrink the journal: %d -> %d", len(entries), len(compacted))
	}

	// The compacted journal must itself be a valid journal.
	j := NewJournal()
	if err := j.Load(compacted); err != nil {
		t.Fatalf("compacted journal fails Verify: %v", err)
	}

	after, err := Replay(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Rules, after.Rules) {
		t.Fatalf("rules diverge:\nbefore %+v\nafter  %+v", before.Rules, after.Rules)
	}
	if !reflect.DeepEqual(before.Qdisc, after.Qdisc) {
		t.Fatalf("qdisc diverges:\nbefore %+v\nafter  %+v", before.Qdisc, after.Qdisc)
	}
	if before.Tenants == nil || !reflect.DeepEqual(before.Tenants, after.Tenants) {
		t.Fatalf("tenants diverge:\nbefore %v\nafter  %v", before.Tenants, after.Tenants)
	}
	if len(after.Conns) != len(before.Conns) {
		t.Fatalf("live conns diverge: %d before, %d after", len(before.Conns), len(after.Conns))
	}
	for id, b := range before.Conns {
		a, ok := after.Conns[id]
		if !ok {
			t.Fatalf("live conn %d lost by compaction", id)
		}
		if !reflect.DeepEqual(b.Rec, a.Rec) {
			t.Fatalf("conn %d record diverges:\nbefore %+v\nafter  %+v", id, b.Rec, a.Rec)
		}
		if a.Stale {
			t.Fatalf("conn %d must not be stale in the compacted journal", id)
		}
	}
	// The garbage is gone: no stale or incomplete connections survive.
	if len(after.Stale) != 0 || len(after.Incomplete) != 0 {
		t.Fatalf("compaction must drop stale (%d) and incomplete (%d) conns",
			len(after.Stale), len(after.Incomplete))
	}
}

// TestCompactFile exercises the on-disk rewrite: below the threshold the file
// is untouched; at the threshold it is rewritten with the compacted entries
// and still decodes and verifies.
func TestCompactFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	writeEntries := func(entries []Entry) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			line, err := EncodeEntry(e)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(line)
		}
		f.Close()
	}
	entries := compactFixture()
	writeEntries(entries)

	// Below threshold: untouched.
	before, after, err := CompactFile(path, len(entries)+1)
	if err != nil {
		t.Fatal(err)
	}
	if before != len(entries) || after != before {
		t.Fatalf("below threshold must be a no-op: before %d after %d", before, after)
	}

	// At threshold: rewritten, decodable, verifiable.
	before, after, err = CompactFile(path, len(entries))
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("compaction must shrink: %d -> %d", before, after)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != after {
		t.Fatalf("file holds %d entries, CompactFile reported %d", len(got), after)
	}
	if err := NewJournal().Load(got); err != nil {
		t.Fatalf("compacted file fails Verify: %v", err)
	}

	// A missing file is not an error (first boot).
	if _, _, err := CompactFile(filepath.Join(dir, "missing"), 1); err != nil {
		t.Fatalf("missing journal must be a no-op: %v", err)
	}
}

// TestCompactFileCrashSafe models a SIGKILL mid-compaction: the temporary
// sibling exists (fully or partially written) but the rename never happened.
// The original journal must be untouched and the next compaction must
// succeed, overwriting the leftover.
func TestCompactFileCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	entries := compactFixture()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw strings.Builder
	for _, e := range entries {
		line, err := EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		raw.Write(line)
		f.Write(line)
	}
	f.Close()

	// The crash: a torn temporary from a compaction that died before rename.
	torn := raw.String()[:len(raw.String())/3] + `{"seq":`
	if err := os.WriteFile(path+".compact", []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// The original is still the journal of record and replays fine.
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(g)
	g.Close()
	if err != nil {
		t.Fatalf("original journal torn by a crashed compaction: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("original journal lost entries: %d of %d", len(got), len(entries))
	}

	// The next incarnation's compaction overwrites the leftover and lands.
	before, after, err := CompactFile(path, 1)
	if err != nil {
		t.Fatalf("compaction after a crash must succeed: %v", err)
	}
	if after >= before {
		t.Fatalf("compaction must shrink: %d -> %d", before, after)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatal("the temporary must be consumed by the rename")
	}
	h, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Decode(h)
	h.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewJournal().Load(got); err != nil {
		t.Fatalf("post-crash compacted journal fails Verify: %v", err)
	}
}
