package recovery

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// Op names one class of control-plane mutation the journal records.
type Op string

// Journal operations. Policy mutations are written ahead of their
// application (write-ahead intent); a failed application is compensated by
// an OpAbort entry referencing the intent's sequence number, and connection
// setup is split into OpConnOpen (before the kernel/NIC work) and OpConnBind
// (after the kernel assigned the connection id) so a crash mid-setup leaves
// a visibly incomplete pair rather than a lie.
const (
	// OpEpoch marks a control-plane incarnation boundary (normand cold
	// start): connections opened before it died with the previous process
	// and replay marks them stale instead of repairing them.
	OpEpoch Op = "epoch"

	OpRuleAppend Op = "rule.append"
	OpRuleFlush  Op = "rule.flush"
	OpQdiscSet   Op = "qdisc.set"
	OpTenantSet  Op = "tenant.set"
	OpConnOpen   Op = "conn.open"
	OpConnBind   Op = "conn.bind"
	OpConnClose  Op = "conn.close"

	// OpAbort compensates a write-ahead entry whose application failed;
	// replay skips the referenced sequence number.
	OpAbort Op = "abort"

	// OpUpgrade records a live-upgrade intent: Ref carries the target
	// pipeline generation the control plane is about to flip to. Replay
	// ignores it — a daemon hot-restart re-adopts the live generation from
	// the NIC itself, never by reprogramming the dataplane — but the entry
	// pins upgrade intent in the same write-ahead log as every other
	// control-plane mutation.
	OpUpgrade Op = "upgrade.gen"
)

// QdiscRecord is the journal form of one egress scheduler configuration:
// the scheduler's own record, which it reads back as it was built from.
type QdiscRecord = qos.Spec

// ConnRecord is the journal form of one connection registration.
type ConnRecord struct {
	Flow    packet.FlowKey `json:"flow"`
	PID     uint32         `json:"pid"`
	UID     uint32         `json:"uid"`
	Command string         `json:"command,omitempty"`
}

// Entry is one journal record. Exactly one payload field matching Op is set.
type Entry struct {
	Seq uint64       `json:"seq"`
	At  sim.Duration `json:"at"` // virtual time of the mutation
	Op  Op           `json:"op"`

	// Ref points OpAbort and OpConnBind at the sequence number of the
	// write-ahead entry they complete or void.
	Ref uint64 `json:"ref,omitempty"`
	// ConnID carries the kernel-assigned id for OpConnBind and OpConnClose.
	ConnID uint64 `json:"conn_id,omitempty"`

	Rule  *RuleRecord  `json:"rule,omitempty"`
	Qdisc *QdiscRecord `json:"qdisc,omitempty"`
	Conn  *ConnRecord  `json:"conn,omitempty"`
	// Tenants is OpTenantSet's payload: tenant id -> isolation weight.
	Tenants map[uint32]int `json:"tenants,omitempty"`
}

// Journal is the deterministic, append-only intent log. It lives in
// simulation memory (so in-sim crash/restart cycles replay it byte-for-byte
// at any worker width); normand additionally mirrors every append to a file
// through OnAppend so a real SIGKILL survives too.
type Journal struct {
	entries  []Entry
	nextSeq  uint64
	onAppend func(Entry)
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// SetOnAppend installs a persistence hook invoked synchronously for every
// appended entry — after the entry is in the in-memory log, before the
// mutation it records is applied.
func (j *Journal) SetOnAppend(fn func(Entry)) { j.onAppend = fn }

// Append assigns the next sequence number to e, appends it and returns the
// completed entry.
func (j *Journal) Append(e Entry) Entry {
	j.nextSeq++
	e.Seq = j.nextSeq
	j.entries = append(j.entries, e)
	if j.onAppend != nil {
		j.onAppend(e)
	}
	return e
}

// Load seeds the journal from previously persisted entries (normand cold
// start). The journal must be empty; sequence numbering continues after the
// highest loaded entry.
func (j *Journal) Load(entries []Entry) error {
	if len(j.entries) != 0 {
		return errors.New("recovery: journal not empty")
	}
	j.entries = append(j.entries, entries...)
	for _, e := range entries {
		if e.Seq > j.nextSeq {
			j.nextSeq = e.Seq
		}
	}
	return j.Verify()
}

// Entries returns the log in append order. The slice is shared; callers
// must not mutate it.
func (j *Journal) Entries() []Entry { return j.entries }

// Len returns the number of entries.
func (j *Journal) Len() int { return len(j.entries) }

// Drop removes the entry with the given sequence number, simulating a torn
// or lost journal record. It exists for fault injection only — the
// reconciler's consistency invariant must notice the gap.
func (j *Journal) Drop(seq uint64) bool {
	for i, e := range j.entries {
		if e.Seq == seq {
			j.entries = append(j.entries[:i], j.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Verify checks journal self-consistency: strictly increasing sequence
// numbers, non-decreasing timestamps within an incarnation, and exactly the
// payload each op requires. It is the "journal_consistent" reconciliation
// invariant. An OpEpoch entry resets the time baseline — each daemon
// incarnation starts its virtual clock at zero, so a cold start legally
// journals an epoch "earlier" than the dead incarnation's last entry.
func (j *Journal) Verify() error {
	var lastSeq uint64
	var lastAt sim.Duration
	for i, e := range j.entries {
		if e.Seq <= lastSeq {
			return fmt.Errorf("recovery: journal seq not increasing at index %d: %d after %d", i, e.Seq, lastSeq)
		}
		if e.Op == OpEpoch {
			lastAt = 0
		} else if e.At < lastAt {
			return fmt.Errorf("recovery: journal time goes backward at seq %d", e.Seq)
		}
		lastSeq, lastAt = e.Seq, e.At
		switch e.Op {
		case OpRuleAppend:
			if e.Rule == nil {
				return fmt.Errorf("recovery: seq %d: %s without rule payload", e.Seq, e.Op)
			}
		case OpQdiscSet:
			if e.Qdisc == nil {
				return fmt.Errorf("recovery: seq %d: %s without qdisc payload", e.Seq, e.Op)
			}
		case OpTenantSet:
			if len(e.Tenants) == 0 {
				return fmt.Errorf("recovery: seq %d: %s without tenant weights", e.Seq, e.Op)
			}
			for id, w := range e.Tenants {
				if w <= 0 {
					return fmt.Errorf("recovery: seq %d: %s: tenant %d weight %d (must be positive)", e.Seq, e.Op, id, w)
				}
			}
		case OpConnOpen:
			if e.Conn == nil {
				return fmt.Errorf("recovery: seq %d: %s without conn payload", e.Seq, e.Op)
			}
		case OpConnBind:
			if e.Ref == 0 || e.ConnID == 0 {
				return fmt.Errorf("recovery: seq %d: %s needs ref and conn_id", e.Seq, e.Op)
			}
		case OpConnClose:
			if e.ConnID == 0 {
				return fmt.Errorf("recovery: seq %d: %s needs conn_id", e.Seq, e.Op)
			}
		case OpAbort:
			if e.Ref == 0 {
				return fmt.Errorf("recovery: seq %d: %s needs ref", e.Seq, e.Op)
			}
		case OpUpgrade:
			if e.Ref == 0 {
				return fmt.Errorf("recovery: seq %d: %s needs the target generation in ref", e.Seq, e.Op)
			}
		case OpEpoch, OpRuleFlush:
			// no payload
		default:
			return fmt.Errorf("recovery: seq %d: unknown op %q", e.Seq, e.Op)
		}
	}
	return nil
}

// Encode writes the journal as JSON lines, one entry per line — the format
// normand persists.
func (j *Journal) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range j.entries {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeEntry renders one entry as a JSON line (with trailing newline), for
// incremental persistence from an OnAppend hook.
func EncodeEntry(e Entry) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode reads JSON-lines entries (blank lines ignored) until EOF.
func Decode(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	var out []Entry
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("recovery: journal line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
