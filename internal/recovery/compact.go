package recovery

import (
	"fmt"
	"os"
)

// Compact folds a journal into the minimal entry sequence that replays to
// the same reconciled intent: the replayed Policy (its rule list in order,
// then its qdisc, then its tenant weights), and one open/bind pair per live
// bound connection. Aborted pairs, flushed rules, superseded qdiscs and
// tenant weights, closed connections, incomplete setups and pre-epoch
// (stale) connections are dropped — they contribute nothing to intent, only
// to journal length. The result passes Verify and Replay(Compact(e)) equals
// Replay(e) on rules, qdisc, tenants and live connections.
func Compact(entries []Entry) ([]Entry, error) {
	in, err := Replay(entries)
	if err != nil {
		return nil, fmt.Errorf("recovery: compact: %w", err)
	}
	var out []Entry
	seq := uint64(0)
	next := func(e Entry) {
		seq++
		e.Seq = seq
		out = append(out, e)
	}
	for i := range in.Rules {
		next(Entry{Op: OpRuleAppend, Rule: &in.Rules[i]})
	}
	if in.Qdisc != nil {
		next(Entry{Op: OpQdiscSet, Qdisc: in.Qdisc})
	}
	if in.Tenants != nil {
		next(Entry{Op: OpTenantSet, Tenants: in.Tenants})
	}
	for _, id := range in.sortedConnIDs() {
		next(Entry{Op: OpConnOpen, Conn: &in.Conns[id].Rec})
		next(Entry{Op: OpConnBind, Ref: seq, ConnID: id})
	}
	return out, nil
}

// CompactFile rewrites a persisted journal in place with its compacted form
// when it holds at least threshold entries; below the threshold it is left
// untouched. The rewrite is crash-safe: the compacted journal is written to
// a temporary sibling, fsynced, and renamed over the original, so a SIGKILL
// at any instant leaves either the old journal or the new one — never a torn
// mix. A leftover temporary from an earlier crash is simply overwritten. It
// returns the entry counts before and after (equal when below threshold).
func CompactFile(path string, threshold int) (before, after int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	entries, err := Decode(f)
	f.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: compact %s: %w", path, err)
	}
	before = len(entries)
	if threshold <= 0 || before < threshold {
		return before, before, nil
	}
	compacted, err := Compact(entries)
	if err != nil {
		return before, 0, err
	}
	tmp := path + ".compact"
	out, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return before, 0, err
	}
	for _, e := range compacted {
		line, err := EncodeEntry(e)
		if err != nil {
			out.Close()
			os.Remove(tmp)
			return before, 0, err
		}
		if _, err := out.Write(line); err != nil {
			out.Close()
			os.Remove(tmp)
			return before, 0, err
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(tmp)
		return before, 0, err
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return before, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return before, 0, err
	}
	return before, len(compacted), nil
}
