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

// recoveryLive builds the reconciler's view of live state. The closures
// re-read the architecture on every call — a crash replaces the filter
// engine wholesale, so capturing a pointer here would diff against the dead
// incarnation's heap.
func (s *System) recoveryLive() recovery.Live {
	return recovery.Live{
		NIC:         s.w.NIC,
		Kern:        s.w.Kern,
		RingPerConn: s.a.Caps().Transfers == 1,
		RuleCount: func(hook string) int {
			f, ok := s.a.(interface{ Filter() *filter.Engine })
			if !ok {
				return 0
			}
			return len(f.Filter().Chain(hookOf(hook)).Rules)
		},
		Qdisc: func() qos.Qdisc {
			if s.a.Caps().Transfers == 1 {
				return s.w.NIC.Scheduler()
			}
			if q, ok := s.a.(interface{ Qdisc() qos.Qdisc }); ok {
				return q.Qdisc()
			}
			return nil
		},
	}
}

// Qdisc returns the live egress scheduler, nil when none is installed. It
// reads the same state the reconciler diffs, so a qdisc reinstalled from
// the journal is visible here even though no TCSet ran in this process.
func (s *System) Qdisc() qos.Qdisc {
	return s.recoveryLive().Qdisc()
}

// hookOf maps the admin-facing hook name to the filter hook.
func hookOf(hook string) filter.Hook {
	if hook == Input {
		return filter.HookInput
	}
	return filter.HookOutput
}

// sysApplier is the reconciler's repair surface over a System: it reapplies
// journaled intent through the raw (non-journaling) mutation paths.
type sysApplier struct{ s *System }

// ReinstallRules recompiles the full intended rule list from scratch.
func (ap sysApplier) ReinstallRules(rules []recovery.RuleRecord) error {
	s := ap.s
	if err := s.a.FlushRules(); err != nil {
		return err
	}
	s.policy.Rules = nil
	for _, rr := range rules {
		if err := s.applyRule(rr); err != nil {
			return err
		}
		s.policy.Rules = append(s.policy.Rules, rr)
	}
	return nil
}

// ReinstallQdisc re-creates the intended scheduler; resolve re-arms the
// shedding that follows from it.
func (ap sysApplier) ReinstallQdisc(q recovery.QdiscRecord) error {
	if err := ap.s.applyQdisc(&q); err != nil {
		return err
	}
	ap.s.policy.Qdisc = &q
	_ = ap.s.resolve() // cannot newly fail here: see resolve
	return nil
}

// ReinstallTenants makes the journaled weights the tenant split again;
// resolve rebuilds the scheduler, the DDIO partition, the flow-cache quotas
// and the governor's budgets from them.
func (ap sysApplier) ReinstallTenants(weights map[uint32]int) error {
	ap.s.policy.Tenants = weights
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
// entry, which a successful verb then folds into s.policy. Seq 0 means "not
// journaled".
func (s *System) record(e recovery.Entry) recovery.Entry {
	if s.rec == nil {
		return e
	}
	return s.rec.Record(s.w.Eng.Now(), e)
}

// abortRecord compensates a journaled mutation whose application failed.
func (s *System) abortRecord(e recovery.Entry) {
	if s.rec != nil && e.Seq != 0 {
		s.rec.Abort(s.w.Eng.Now(), e.Seq)
	}
}

var _ recovery.Applier = sysApplier{}
