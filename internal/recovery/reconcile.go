package recovery

import (
	"fmt"
	"maps"
	"reflect"

	"norman/internal/kernel"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/sim"
)

// Deterministic reconciliation cost model: replaying one journal entry is a
// memory walk (~200ns of virtual time), applying one repair action reaches
// back into the NIC/kernel (~2µs). Constants, not wall-clock measurements,
// so E10's recovery-time column is byte-identical at any worker width.
const (
	replayCostPerEntry = 200 * sim.Nanosecond
	repairCostPerAct   = 2 * sim.Microsecond
)

// Live names the state the reconciler diffs journaled intent against.
type Live struct {
	NIC  *nic.NIC
	Kern *kernel.Kernel
	// RingPerConn is true on architectures where each connection owns a NIC
	// ring and a steering entry (Caps().Transfers == 1); on the kernel-stack
	// architecture connections share kernel-owned queues and no per-conn NIC
	// state exists to reconcile.
	RingPerConn bool
	// Policy reads the dataplane's policy back as the journal's records: the
	// rules installed on each hook, the live scheduler's Spec (nil = none)
	// and the NIC's tenant weights (nil = isolation off).
	Policy func() Policy
}

// Applier is the control plane's repair surface: the reconciler decides
// *what* diverged, the system decides *how* to reapply it (recompiling
// rules, reinstalling the scheduler or the tenant split, re-registering
// kernel connections, re-steering flows).
type Applier interface {
	ReinstallRules(rules []RuleRecord) error
	ReinstallQdisc(q QdiscRecord) error
	ReinstallTenants(weights map[uint32]int) error
	RestoreConn(rec ConnRecord, id uint64) error
	RepairSteering(rec ConnRecord, id uint64) error
}

// Action is one repair the reconciler applied.
type Action struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Report is the outcome of one Restart: what the journal said, what
// diverged, what was repaired, and whether the invariants hold now.
type Report struct {
	Entries  int `json:"entries"`  // journal length replayed
	Rules    int `json:"rules"`    // intended rule count
	Conns    int `json:"conns"`    // intended live connections
	Stale    int `json:"stale"`    // pre-epoch connections ignored
	Partial  int `json:"partial"`  // conn setups the crash interrupted
	Rejected int `json:"rejected"` // mutations refused during the outage

	Divergences  []string          `json:"divergences,omitempty"`
	Actions      []Action          `json:"actions,omitempty"`
	Invariants   []InvariantResult `json:"invariants"`
	InvariantsOK bool              `json:"invariants_ok"`
	// Clean is true when the post-repair re-diff found nothing: live state
	// matches journaled intent exactly.
	Clean        bool         `json:"clean"`
	RecoveryTime sim.Duration `json:"recovery_ps"`
}

// divergence is one intended-vs-live mismatch, with enough structure for
// the repair dispatch.
type divergence struct {
	kind   string // rules | qdisc | tenants | nic.program | conn.kernel | conn.ring | conn.steer
	detail string
	conn   *IntentConn // set for conn.* kinds
}

// Restart brings the control plane back: replays the journal into intent,
// diffs against live state, repairs divergence through the applier from that
// intent, re-diffs to prove convergence, and runs the invariant checker. The
// returned report is also retained as Status().Last.
func (m *Manager) Restart(now sim.Time, live Live, ap Applier) (*Report, error) {
	// Only this outage's rejections: the lifetime counter minus its value
	// when the outage began (zero on a cold-start Restart with no Crash).
	rejected := m.RejectedWhileDown - m.rejectedAtCrash
	m.rejectedAtCrash = m.RejectedWhileDown
	m.down = false
	m.Restarts++

	entries := m.journal.Entries()
	in, err := Replay(entries)
	if err != nil {
		return nil, err
	}
	m.ReplayedEntries += uint64(len(entries))
	m.StaleConns += uint64(len(in.Stale))
	m.span(now, "replay", fmt.Sprintf("%d entries -> %d rules, %d conns, %d stale", len(entries), len(in.Rules), len(in.Conns), len(in.Stale)))

	rep := &Report{
		Entries:  len(entries),
		Rules:    len(in.Rules),
		Conns:    len(in.Conns),
		Stale:    len(in.Stale),
		Partial:  len(in.Incomplete),
		Rejected: int(rejected),
	}

	divs := diff(in, live)
	m.DivergencesFound += uint64(len(divs))
	for _, d := range divs {
		rep.Divergences = append(rep.Divergences, d.kind+": "+d.detail)
	}

	rep.Actions = m.repair(now, in, ap, divs)
	m.RepairsApplied += uint64(len(rep.Actions))

	after := diff(in, live)
	rep.Clean = len(after) == 0
	rep.Invariants = checkInvariants(m.journal, after)
	rep.InvariantsOK = true
	for _, iv := range rep.Invariants {
		if !iv.OK {
			rep.InvariantsOK = false
			m.InvariantFailures++
		}
	}
	m.span(now, "repair", fmt.Sprintf("%d divergences, %d actions, clean=%v", len(divs), len(rep.Actions), rep.Clean))
	m.span(now, "invariants", fmt.Sprintf("ok=%v", rep.InvariantsOK))

	rep.RecoveryTime = sim.Duration(len(entries))*replayCostPerEntry + sim.Duration(len(rep.Actions))*repairCostPerAct
	m.LastRecovery = rep.RecoveryTime
	m.lastReport = rep
	return rep, nil
}

// diff computes intended-vs-live divergences in deterministic order: rules
// (per hook, element by element), qdisc, tenants (the weights, then the flow
// cache's partition), NIC programs, then connections sorted by id. Policy is
// compared as records: the journal's canonical fold against the live
// read-back, the qdisc and the tenants only where the journal holds one. It
// is the reconciler's one comparison: repair acts on it and the invariants
// read the post-repair re-diff.
func diff(in *Intent, live Live) []divergence {
	var out []divergence
	add := func(kind string, c *IntentConn, format string, args ...any) {
		out = append(out, divergence{kind: kind, conn: c, detail: fmt.Sprintf(format, args...)})
	}

	want, got := in.Canonical(), live.Policy()
	for _, hook := range hooks {
		if w, g := want.RulesFor(hook), got.RulesFor(hook); !reflect.DeepEqual(g, w) {
			add("rules", nil, "%s: live %v, intended %v", hook, g, w)
		}
	}

	if want.Qdisc != nil {
		switch {
		case got.Qdisc == nil:
			add("qdisc", nil, "intended %s, live none", want.Qdisc.Kind)
		case !reflect.DeepEqual(*got.Qdisc, *want.Qdisc):
			add("qdisc", nil, "live %+v, intended %+v", *got.Qdisc, *want.Qdisc)
		}
	}

	if want.Tenants != nil {
		switch {
		case got.Tenants == nil:
			add("tenants", nil, "intended %v, live none", want.Tenants)
		case !maps.Equal(got.Tenants, want.Tenants):
			add("tenants", nil, "live weights %v, intended %v", got.Tenants, want.Tenants)
		case live.NIC != nil && live.NIC.FlowCache() != nil && live.NIC.FlowCache().Quotas() == nil:
			add("tenants", nil, "flow cache not partitioned by %v", want.Tenants)
		}
	}

	if live.NIC != nil {
		// Every loaded chain must pass the install-time verifier. On
		// NIC-resident-policy architectures the intended rules also compile
		// into pipeline chains: INPUT guards ingress, OUTPUT guards egress.
		for dir := nic.Ingress; dir <= nic.Egress; dir++ {
			mach := live.NIC.Machine(dir)
			switch {
			case mach != nil:
				if err := overlay.Verify(mach.Program()); err != nil {
					add("nic.program", nil, "%s chain fails verification: %v", hooks[dir], err)
				}
			case live.RingPerConn && len(in.RulesFor(hooks[dir])) > 0:
				add("nic.program", nil, "%s chain intended, none loaded", hooks[dir])
			}
		}
	}

	for _, id := range in.sortedConnIDs() {
		c := in.Conns[id]
		if live.Kern != nil {
			if _, ok := live.Kern.Conn(id); !ok {
				add("conn.kernel", c, "conn %d missing from kernel table", id)
				continue
			}
		}
		if live.RingPerConn && live.NIC != nil {
			if _, ok := live.NIC.Conn(id); !ok {
				// The ring memory is application-owned; with the rings gone
				// there is nothing the control plane can restore.
				add("conn.ring", c, "conn %d has no NIC ring", id)
				continue
			}
			if steered, ok := live.NIC.SteeredConn(c.Rec.Flow); !ok || steered != id {
				add("conn.steer", c, "conn %d flow not steered to its ring", id)
			}
		}
	}
	return out
}

// repair applies one pass of fixes for the given divergences. Each kind has
// one repair, from journaled intent: a rule mismatch or a lost or
// failing chain recompiles the rules (which reloads both chains), a qdisc or
// tenant divergence reinstalls what the policy names, and a connection
// divergence restores its kernel row or its steering entry.
func (m *Manager) repair(now sim.Time, in *Intent, ap Applier, divs []divergence) []Action {
	if ap == nil {
		return nil
	}
	var acts []Action
	act := func(kind, detail string, err error) {
		if err != nil {
			kind, detail = kind+".failed", err.Error()
		}
		acts = append(acts, Action{Kind: kind, Detail: detail})
		m.span(now, "repair."+kind, detail)
	}

	var rulesDiverged, qdiscDiverged, tenantsDiverged bool
	for _, d := range divs {
		switch d.kind {
		case "rules", "nic.program":
			rulesDiverged = true
		case "qdisc":
			qdiscDiverged = true
		case "tenants":
			tenantsDiverged = true
		}
	}
	if rulesDiverged {
		act("rules.reinstall", fmt.Sprintf("%d rules recompiled", len(in.Rules)), ap.ReinstallRules(in.Rules))
	}
	if qdiscDiverged {
		act("qdisc.reinstall", in.Qdisc.Kind, ap.ReinstallQdisc(*in.Qdisc))
	}
	if tenantsDiverged {
		act("tenants.reinstall", fmt.Sprintf("%d tenants", len(in.Tenants)), ap.ReinstallTenants(in.Tenants))
	}
	for _, d := range divs {
		switch d.kind {
		case "conn.kernel":
			act("conn.restore", fmt.Sprintf("conn %d re-registered", d.conn.ID), ap.RestoreConn(d.conn.Rec, d.conn.ID))
		case "conn.steer":
			act("conn.steer", fmt.Sprintf("conn %d re-steered", d.conn.ID), ap.RepairSteering(d.conn.Rec, d.conn.ID))
		}
	}
	return acts
}
