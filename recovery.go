package norman

import (
	"fmt"

	"norman/internal/arch"
	"norman/internal/filter"
	"norman/internal/qos"
	"norman/internal/recovery"
)

// ErrControlPlaneDown re-exports the typed mutation-rejection error so API
// users can errors.Is against the public package.
var ErrControlPlaneDown = recovery.ErrControlPlaneDown

// EnableRecovery attaches the crash-recovery subsystem: every control-plane
// mutation (iptables, tc, tenant weights, dial/close) is journaled before it
// is applied, CrashControlPlane/RestartControlPlane model outages, and the
// reconciler repairs intended-vs-live divergence on restart. A qdisc or a
// tenant split set before this call is journaled now; rules and connections
// that predate it are not. Idempotent; returns the manager either way.
func (s *System) EnableRecovery() *recovery.Manager {
	if s.rec == nil {
		s.rec = recovery.NewManager()
		if s.policy.Qdisc != nil {
			s.record(recovery.Entry{Op: recovery.OpQdiscSet, Qdisc: s.policy.Qdisc})
		}
		if s.policy.Tenants != nil {
			s.record(recovery.Entry{Op: recovery.OpTenantSet, Tenants: s.policy.Tenants})
		}
		s.attach(partRecovery, s.rec)
	}
	return s.rec
}

// Recovery returns the recovery manager, nil before EnableRecovery.
func (s *System) Recovery() *recovery.Manager { return s.rec }

// CrashControlPlane kills the control plane at the current virtual time:
// its in-memory policy state (rule lists, qdisc bindings, the admin's rule
// view) is wiped, and every mutation until RestartControlPlane fails with
// ErrControlPlaneDown. What the *dataplane* does meanwhile is the
// architecture's answer — rings keep forwarding, the kernel stack stops.
func (s *System) CrashControlPlane() error {
	if s.rec == nil {
		return fmt.Errorf("norman: crash: EnableRecovery first")
	}
	cr, ok := s.a.(arch.ControlPlaneCrasher)
	if !ok {
		return fmt.Errorf("norman: %s: %w", s.a.Name(), arch.ErrUnsupported)
	}
	s.rec.Crash(s.w.Eng.Now())
	s.policy.Rules = nil
	cr.CrashControlPlane()
	// A control plane dying mid-canary cannot supervise the new generation:
	// the upgrade manager reverts the dataplane to the proven one.
	if s.up != nil {
		s.up.OnControlPlaneCrash(s.w.Eng.Now())
	}
	return nil
}

// RestartControlPlane revives the control plane and reconciles: the journal
// is replayed into intent, live NIC/kernel/filter state is diffed against
// it, divergence is repaired, and the invariant checker proves the result.
func (s *System) RestartControlPlane() (*recovery.Report, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("norman: restart: EnableRecovery first")
	}
	cr, ok := s.a.(arch.ControlPlaneCrasher)
	if !ok {
		return nil, fmt.Errorf("norman: %s: %w", s.a.Name(), arch.ErrUnsupported)
	}
	cr.RestartControlPlane()
	return s.rec.Restart(s.w.Eng.Now(), s.recoveryLive(), sysApplier{s})
}

// RecoverFromJournal seeds an empty journal from persisted entries (the
// normand cold-start path), marks the incarnation boundary — connections in
// the old entries belonged to processes that died with the previous daemon
// — and reconciles what remains (rules, qdisc config and the tenant split are
// re-installed; pre-epoch connections are reported stale, not resurrected).
func (s *System) RecoverFromJournal(entries []recovery.Entry) (*recovery.Report, error) {
	rec := s.EnableRecovery()
	if err := rec.Journal().Load(entries); err != nil {
		return nil, err
	}
	rec.MarkEpoch(s.w.Eng.Now())
	return rec.Restart(s.w.Eng.Now(), s.recoveryLive(), sysApplier{s})
}

// recoveryLive builds the reconciler's view of live state.
func (s *System) recoveryLive() recovery.Live {
	return recovery.Live{
		NIC:         s.w.NIC,
		Kern:        s.w.Kern,
		RingPerConn: s.a.Caps().Transfers == 1,
		Policy:      s.LivePolicy,
	}
}

// LivePolicy reads the dataplane's policy back as the journal's records: the
// rules installed on each hook (INPUT, then OUTPUT) through recovery.RuleOf,
// the live scheduler through its Spec, and the NIC's tenant weights. The
// reconciler diffs it with the journal's canonical fold, and IPTablesList
// lists its rules. The uid classifier cannot be read back, so the qdisc's
// ClassOfUID stays what TCShow prints. Every call re-reads the architecture:
// a crash replaces the filter engine wholesale.
func (s *System) LivePolicy() recovery.Policy {
	var p recovery.Policy
	if f, ok := s.a.(interface{ Filter() *filter.Engine }); ok {
		for _, h := range []filter.Hook{filter.HookInput, filter.HookOutput} {
			for _, fr := range f.Filter().Chain(h).Rules {
				p.Rules = append(p.Rules, recovery.RuleRecord{Hook: h.String(), Rule: recovery.RuleOf(fr)})
			}
		}
	}
	if q := s.Qdisc(); q != nil {
		spec := q.Spec()
		p.Qdisc = &spec
	}
	if ts := s.w.NIC.TenantScheduler(); ts != nil {
		p.Tenants = ts.Weights()
	}
	return p
}

// Qdisc returns the live egress scheduler, nil when none is installed: the
// NIC's on architectures where each connection owns a ring, the host
// software's otherwise. The reconciler diffs the same reader, so a qdisc
// reinstalled from the journal is visible here even though no TCSet ran in
// this process.
func (s *System) Qdisc() qos.Qdisc {
	if s.a.Caps().Transfers == 1 {
		return s.w.NIC.Scheduler()
	}
	if q, ok := s.a.(interface{ Qdisc() qos.Qdisc }); ok {
		return q.Qdisc()
	}
	return nil
}

// sysApplier is the reconciler's repair surface over a System: it reapplies
// journaled intent through the verbs' own install-and-fold path, unjournaled.
type sysApplier struct{ s *System }

// ReinstallRules recompiles the full intended rule list from scratch.
func (ap sysApplier) ReinstallRules(rules []recovery.RuleRecord) error {
	s := ap.s
	if err := s.fold(recovery.Entry{Op: recovery.OpRuleFlush}, s.flushRules); err != nil {
		return err
	}
	for i := range rules {
		if err := s.fold(recovery.Entry{Op: recovery.OpRuleAppend, Rule: &rules[i]}, s.installRule); err != nil {
			return err
		}
	}
	return nil
}

// ReinstallQdisc re-creates the intended scheduler; resolve re-arms the
// shedding that follows from it.
func (ap sysApplier) ReinstallQdisc(q recovery.QdiscRecord) error {
	if err := ap.s.fold(recovery.Entry{Op: recovery.OpQdiscSet, Qdisc: &q}, ap.s.setQdisc); err != nil {
		return err
	}
	_ = ap.s.resolve() // cannot newly fail here: see resolve
	return nil
}

// ReinstallTenants makes the journaled weights the tenant split again;
// resolve rebuilds the scheduler, the DDIO partition, the flow-cache quotas
// and the governor's budgets from them.
func (ap sysApplier) ReinstallTenants(weights map[uint32]int) error {
	if err := ap.s.fold(recovery.Entry{Op: recovery.OpTenantSet, Tenants: weights}, ap.s.fitTenants); err != nil {
		return err
	}
	return ap.s.resolve()
}

// RestoreConn re-inserts a lost kernel table row under its original id.
func (ap sysApplier) RestoreConn(rec recovery.ConnRecord, id uint64) error {
	_, err := ap.s.w.Kern.RestoreConn(id, rec.PID, rec.Flow, ap.s.w.Eng.Now())
	return err
}

// RepairSteering re-installs a connection's flow-director entry.
func (ap sysApplier) RepairSteering(rec recovery.ConnRecord, id uint64) error {
	return ap.s.w.NIC.SteerFlow(rec.Flow, id)
}

// gate rejects the mutation when the control plane is down; a nil manager
// (recovery not enabled) never gates.
func (s *System) gate() error {
	if s.rec == nil {
		return nil
	}
	return s.rec.Gate()
}

// record journals a mutation when recovery is enabled and returns the
// entry. Seq 0 means "not journaled".
func (s *System) record(e recovery.Entry) recovery.Entry {
	if s.rec == nil {
		return e
	}
	return s.rec.Record(s.w.Eng.Now(), e)
}

// commit is every policy verb's one write path: journal e write-ahead, install
// and fold it, and void the journal entry with an abort record when the
// install fails.
func (s *System) commit(e recovery.Entry, install func(recovery.Entry) error) error {
	e = s.record(e)
	if err := s.fold(e, install); err != nil {
		s.abortRecord(e)
		return err
	}
	return nil
}

// abortRecord compensates a journaled mutation whose application failed.
func (s *System) abortRecord(e recovery.Entry) {
	if s.rec != nil && e.Seq != 0 {
		s.rec.Abort(s.w.Eng.Now(), e.Seq)
	}
}

// fold installs one policy entry and, when that succeeds, folds it into
// s.policy through Policy.Apply, the fold journal replay runs. The verbs reach
// it through commit; the reconciler's repairs call it unjournaled.
func (s *System) fold(e recovery.Entry, install func(recovery.Entry) error) error {
	if err := install(e); err != nil {
		return err
	}
	s.policy.Apply(e)
	return nil
}

var _ recovery.Applier = sysApplier{}
