package recovery

import (
	"fmt"
	"sort"

	"norman/internal/qos"
)

// Policy is what the control plane asked the dataplane to enforce: the
// ordered rule list, the egress scheduler and the tenant isolation weights.
// Replay folds it from the journal, Compact re-emits it, and the facade keeps
// the same value for the live control plane, each through Apply.
type Policy struct {
	Rules   []RuleRecord
	Qdisc   *QdiscRecord
	Tenants map[uint32]int // nil = isolation off
}

// Apply folds one journal entry into the policy: an append adds its rule, a
// flush clears the list, a qdisc.set replaces the scheduler and a tenant.set
// the tenant weights. Every other op leaves the policy as it is.
func (p *Policy) Apply(e Entry) {
	switch e.Op {
	case OpRuleAppend:
		p.Rules = append(p.Rules, *e.Rule)
	case OpRuleFlush:
		p.Rules = nil
	case OpQdiscSet:
		q := *e.Qdisc
		p.Qdisc = &q
	case OpTenantSet:
		p.Tenants = e.Tenants
	}
}

// RulesFor returns the rules on one hook, in order.
func (p *Policy) RulesFor(hook string) []RuleRecord {
	var out []RuleRecord
	for _, r := range p.Rules {
		if r.Hook == hook {
			out = append(out, r)
		}
	}
	return out
}

// hooks are the hooks a rule installs on, in the order the dataplane's
// chains are read back; indexed by nic.Direction, INPUT guards ingress and
// OUTPUT egress.
var hooks = [...]string{"INPUT", "OUTPUT"}

// Canonical is the policy as the dataplane reads it back once installed, the
// form the reconciler compares with the live read-back: the rules hook by
// hook (the order between two hooks is not state a chain holds), each
// compiled and read back through RuleOf, and the qdisc built and read back
// through its Spec. A record that does not install stays as written; the
// tenant weights read back as asked.
func (p Policy) Canonical() Policy {
	out := Policy{Tenants: p.Tenants}
	for _, hook := range hooks {
		for _, r := range p.RulesFor(hook) {
			if fr, err := r.Compile(); err == nil {
				r.Rule = RuleOf(fr)
			}
			out.Rules = append(out.Rules, r)
		}
	}
	if p.Qdisc != nil {
		q := *p.Qdisc
		if built, _, err := qos.Build(q); err == nil {
			q = built.Spec()
		}
		out.Qdisc = &q
	}
	return out
}

// IntentConn is one connection as the journal intends it.
type IntentConn struct {
	Rec     ConnRecord
	ID      uint64 // kernel connection id from OpConnBind; 0 = setup never completed
	OpenSeq uint64
	Stale   bool // opened before the latest epoch: its process died with that incarnation
}

// Intent is the state the control plane is supposed to be in, rebuilt by
// replaying the journal: the policy plus the set of live connections. It is
// the left-hand side of the reconciler's diff.
type Intent struct {
	Policy
	// Conns maps kernel connection id -> intended connection (bound, open,
	// current incarnation).
	Conns map[uint64]*IntentConn
	// Incomplete holds conn.open entries that never reached conn.bind — a
	// crash hit mid-setup. Reported, never repaired (the application's half
	// of the setup is gone).
	Incomplete []*IntentConn
	// Stale holds connections from previous incarnations (pre-epoch).
	Stale []*IntentConn
}

// Replay folds the journal into an Intent. Aborted entries are skipped, the
// policy entries go through Policy.Apply, and an epoch marks every
// connection opened before it stale.
func Replay(entries []Entry) (*Intent, error) {
	aborted := make(map[uint64]bool)
	for _, e := range entries {
		if e.Op == OpAbort {
			aborted[e.Ref] = true
		}
	}

	in := &Intent{Conns: make(map[uint64]*IntentConn)}
	pending := make(map[uint64]*IntentConn) // open-seq -> conn awaiting bind
	for _, e := range entries {
		if aborted[e.Seq] {
			continue
		}
		in.Apply(e)
		switch e.Op {
		case OpEpoch:
			for id, c := range in.Conns {
				c.Stale = true
				in.Stale = append(in.Stale, c)
				delete(in.Conns, id)
			}
			for seq, c := range pending {
				c.Stale = true
				in.Stale = append(in.Stale, c)
				delete(pending, seq)
			}
			sortByOpenSeq(in.Stale)
		case OpConnOpen:
			pending[e.Seq] = &IntentConn{Rec: *e.Conn, OpenSeq: e.Seq}
		case OpConnBind:
			c, ok := pending[e.Ref]
			if !ok {
				return nil, fmt.Errorf("recovery: seq %d binds unknown open seq %d", e.Seq, e.Ref)
			}
			delete(pending, e.Ref)
			c.ID = e.ConnID
			in.Conns[e.ConnID] = c
		case OpConnClose:
			delete(in.Conns, e.ConnID)
		}
	}
	for _, c := range pending {
		in.Incomplete = append(in.Incomplete, c)
	}
	// Map iteration above is unordered; sort so replay output — and every
	// report built from it — is byte-identical at any worker width.
	sortByOpenSeq(in.Incomplete)
	return in, nil
}

func sortByOpenSeq(cs []*IntentConn) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].OpenSeq < cs[j].OpenSeq })
}

// sortedConnIDs returns the intended live connection ids in ascending order.
func (in *Intent) sortedConnIDs() []uint64 {
	ids := make([]uint64, 0, len(in.Conns))
	for id := range in.Conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
