// Package recovery makes the control plane restartable: the answer to the
// paper's single-point-of-failure gap. KOPI's split — policies execute on
// the NIC, the in-kernel control plane only programs them (§4) — is exactly
// what lets the dataplane keep forwarding through a control-plane crash, but
// only if three pieces exist, and this package is those pieces:
//
//   - an append-only intent Journal recording every control-plane mutation
//     (filter rules, qdisc configuration, tenant weights, connection
//     registrations) before it is applied, deterministic and replayable like
//     internal/faults;
//   - a Manager that models the crash window: while the control plane is
//     down the dataplane runs on its last-installed policies and every new
//     mutation is rejected with the typed ErrControlPlaneDown;
//   - a reconciler that on restart replays the journal into an Intent,
//     diffs it against the live NIC/kernel/filter state, repairs divergence
//     from that intent alone (recompiling chains, reinstalling the scheduler
//     and the tenant split, re-steering flows, restoring kernel table rows),
//     and proves the result with an invariant checker.
//
// Everything is exposed through recovery.* metrics and trace spans on the
// unified telemetry registry; experiment E10 sweeps crash windows across
// architectures and tables the damage.
package recovery

import (
	"errors"

	"norman/internal/sim"
	"norman/internal/telemetry"
)

// ErrControlPlaneDown is returned for any control-plane mutation attempted
// while the control plane is crashed or mid-restart. The dataplane is not
// affected: installed policies keep executing on the NIC (or die with the
// kernel, on architectures without the split — that contrast is E10's
// table).
var ErrControlPlaneDown = errors.New("recovery: control plane down (dataplane frozen on last-installed policies)")

// Manager owns the journal and the crash/restart lifecycle for one system.
type Manager struct {
	journal *Journal
	down    bool
	downAt  sim.Time

	tracer  *telemetry.Tracer
	traceID uint64 // span id of the current crash→recovery cycle

	// rejectedAtCrash snapshots RejectedWhileDown when the current outage
	// began, so Restart can report the rejections of *this* outage rather
	// than the lifetime total.
	rejectedAtCrash uint64

	Counters

	lastReport *Report
}

// Counters are the manager's lifetime tallies, exposed as the telemetry
// registry's recovery layer and in Status.
type Counters struct {
	Crashes           uint64 `json:"crashes"`
	Restarts          uint64 `json:"restarts"`
	RejectedWhileDown uint64 `json:"rejected_while_down"`
	ReplayedEntries   uint64 `json:"replayed_entries"`
	DivergencesFound  uint64 `json:"divergences"`
	RepairsApplied    uint64 `json:"repairs"`
	StaleConns        uint64 `json:"stale_conns"`
	InvariantFailures uint64 `json:"invariant_failures"`

	// LastRecovery is the virtual time the most recent reconciliation
	// consumed (see Report.RecoveryTime).
	LastRecovery sim.Duration `json:"last_recovery_ps"`
}

// Status is the recovery subsystem's state as the recovery.status op serves
// it: whether the control plane is down, the journal length, the counters,
// and the last reconciliation report (nil before the first restart).
type Status struct {
	Down           bool `json:"down"`
	JournalEntries int  `json:"journal_entries"`
	Counters
	Last *Report `json:"last,omitempty"`
}

// NewManager returns a manager with an empty journal.
func NewManager() *Manager { return &Manager{journal: NewJournal()} }

// Status snapshots the manager.
func (m *Manager) Status() Status {
	return Status{Down: m.down, JournalEntries: m.journal.Len(), Counters: m.Counters, Last: m.lastReport}
}

// Journal returns the intent journal.
func (m *Manager) Journal() *Journal { return m.journal }

// Down reports whether the control plane is currently crashed.
func (m *Manager) Down() bool { return m.down }

// SetTracer attaches the packet-lifecycle tracer; crash, replay, repair and
// invariant events become spans under one id per crash→recovery cycle, so
// `ntcpdump -trace` renders a recovery the same way it renders a packet.
func (m *Manager) SetTracer(tr *telemetry.Tracer) { m.tracer = tr }

// span records one recovery-cycle trace event.
func (m *Manager) span(at sim.Time, point, note string) {
	if m.tracer == nil || m.traceID == 0 {
		return
	}
	m.tracer.Record(m.traceID, at, "recovery", point, note)
}

// Crash marks the control plane down. Mutations now fail with
// ErrControlPlaneDown until Restart; the caller is responsible for wiping
// whatever in-memory control state the architecture loses.
func (m *Manager) Crash(now sim.Time) {
	if m.down {
		return
	}
	m.down = true
	m.downAt = now
	m.rejectedAtCrash = m.RejectedWhileDown
	m.Crashes++
	if m.tracer != nil {
		m.traceID = m.tracer.StampID()
	}
	m.span(now, "crash", "control plane down")
}

// Gate returns ErrControlPlaneDown (and counts the rejection) while the
// control plane is down, nil otherwise. Every journaling mutation path calls
// it first.
func (m *Manager) Gate() error {
	if m.down {
		m.RejectedWhileDown++
		return ErrControlPlaneDown
	}
	return nil
}

// Record journals one mutation with the given virtual timestamp and returns
// the completed entry. Call after Gate, before applying the mutation
// (write-ahead); compensate an application failure with Abort.
func (m *Manager) Record(now sim.Time, e Entry) Entry {
	e.At = sim.Duration(now)
	return m.journal.Append(e)
}

// Abort journals a compensation entry voiding the write-ahead entry seq
// (its application failed).
func (m *Manager) Abort(now sim.Time, seq uint64) {
	m.journal.Append(Entry{At: sim.Duration(now), Op: OpAbort, Ref: seq})
}

// MarkEpoch journals an incarnation boundary: connections recorded before
// this instant belonged to a process that no longer exists (normand cold
// start). In-sim crash/restart cycles do not mark epochs — their processes
// survive.
func (m *Manager) MarkEpoch(now sim.Time) {
	m.journal.Append(Entry{At: sim.Duration(now), Op: OpEpoch})
}

// RegisterMetrics exposes the manager's counters as the registry's recovery
// layer. Registering again replaces the series (the registry drops
// duplicates), so enabling telemetry and recovery in either order is safe.
func (m *Manager) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "crashes", Help: "control-plane crashes modeled", Unit: "crashes"},
		labels, func() uint64 { return m.Crashes })
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "restarts", Help: "control-plane restarts reconciled", Unit: "restarts"},
		labels, func() uint64 { return m.Restarts })
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "rejected_mutations", Help: "mutations rejected with ErrControlPlaneDown during an outage", Unit: "requests"},
		labels, func() uint64 { return m.RejectedWhileDown })
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "journal_entries", Help: "intent journal entries appended", Unit: "entries"},
		labels, func() uint64 { return uint64(m.journal.Len()) })
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "replayed_entries", Help: "journal entries replayed across all restarts", Unit: "entries"},
		labels, func() uint64 { return m.ReplayedEntries })
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "divergences", Help: "intended-vs-live state divergences the reconciler detected", Unit: "divergences"},
		labels, func() uint64 { return m.DivergencesFound })
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "repairs", Help: "repair actions the reconciler applied", Unit: "repairs"},
		labels, func() uint64 { return m.RepairsApplied })
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "stale_conns", Help: "journaled connections from dead incarnations marked stale instead of repaired", Unit: "conns"},
		labels, func() uint64 { return m.StaleConns })
	r.Counter(telemetry.Desc{Layer: "recovery", Name: "invariant_failures", Help: "post-reconciliation invariant checks that failed", Unit: "failures"},
		labels, func() uint64 { return m.InvariantFailures })
	r.Gauge(telemetry.Desc{Layer: "recovery", Name: "last_recovery_ps", Help: "virtual time the most recent reconciliation consumed", Unit: "ps"},
		labels, func() float64 { return float64(m.LastRecovery) })
}
