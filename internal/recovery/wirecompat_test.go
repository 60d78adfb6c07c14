package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestJournalWireCompat holds the journal's wire format to files normand
// wrote before RuleRecord embedded Rule: testdata/parent.journal is a real
// two-incarnation log (rules with owner uid/cmd, marks and src/dst nets, a
// flush, superseded and aborted qdiscs, a qdisc with class_of_uid, conn
// open/bind/close, aborted rule/qdisc/conn setups, an upgrade.gen, an epoch),
// and testdata/parent.compact is its compaction as that build wrote it.
// Decode → Encode must reproduce the log, and Decode → Replay → Compact →
// Encode its compaction, byte for byte.
func TestJournalWireCompat(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	log, compact := read("parent.journal"), read("parent.compact")

	entries, err := Decode(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal()
	if err := j.Load(entries); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := j.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), log) {
		t.Fatalf("journal re-encodes differently:\n got %s\nwant %s", got.Bytes(), log)
	}

	in, err := Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Rules) != 3 || in.Qdisc == nil || len(in.Qdisc.ClassOfUID) != 2 || len(in.Conns) != 1 || len(in.Stale) != 1 {
		t.Fatalf("replay = %d rules, qdisc %+v, %d conns, %d stale; want 3, wfq with class_of_uid, 1, 1",
			len(in.Rules), in.Qdisc, len(in.Conns), len(in.Stale))
	}
	if r := in.Rules[1]; r.Hook != "OUTPUT" || r.OwnerUID == nil || *r.OwnerUID != 1000 || r.OwnerCmd != "curl" || r.Mark != 7 {
		t.Fatalf("owner rule replays as %+v", r)
	}
	compacted, err := Compact(entries)
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	cj := NewJournal()
	if err := cj.Load(compacted); err != nil {
		t.Fatal(err)
	}
	if err := cj.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), compact) {
		t.Fatalf("compaction differs from the recorded one:\n got %s\nwant %s", got.Bytes(), compact)
	}
}
