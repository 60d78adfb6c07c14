// Package upgrade is Norman's live-upgrade subsystem: planned maintenance of
// the interposition dataplane — policy, overlay-program and bitstream
// upgrades — made hitless under KOPI (DESIGN.md §12). It drives the NIC's A/B
// pipeline generations (stage → verify → pause-and-flip → canary →
// commit/rollback), carries the warm flow-cache entries across the flip, and
// watches the canary window with the same counter-delta sampling discipline
// as the health monitor, rolling back automatically on breach.
// ReloadBitstream — a seconds-long blackout, §4.4's open challenge — is the
// outage this package exists to avoid; raw bypass has no layer that could
// even sequence the cutover, which is the comparison E16 draws.
package upgrade

import (
	"errors"
	"fmt"

	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/recovery"
	"norman/internal/sim"
	"norman/internal/supervise"
	"norman/internal/telemetry"
)

// Phase is the upgrade lifecycle state (DESIGN.md §12's state machine):
//
//	Idle --Stage--> Staged --CutOver--> Canary --window expires--> Committed
//	                                      |
//	                                      +--breach / crash / force--> RolledBack
//
// Committed and RolledBack are terminal for one upgrade attempt; the next
// Stage returns the manager to Staged.
type Phase int

// Phases.
const (
	Idle Phase = iota
	Staged
	Canary
	Committed
	RolledBack
)

func (p Phase) String() string {
	switch p {
	case Staged:
		return "staged"
	case Canary:
		return "canary"
	case Committed:
		return "committed"
	case RolledBack:
		return "rolledback"
	default:
		return "idle"
	}
}

// Manager errors.
var (
	ErrNotStaged   = errors.New("upgrade: no staged generation (Stage first)")
	ErrNotInCanary = errors.New("upgrade: no canary in progress")
	ErrBusy        = errors.New("upgrade: an upgrade is already in flight")
)

// The canary's verdict rule and the cutover's pause bound. The pause buffer
// covers the MMIO activation cost with an order of magnitude to spare
// (overflow is the typed RxPauseDrop class). The canary samples every
// sampleEvery, the health monitor's cadence. A freshly cut-over generation
// that traps, drops or corrupts *at all* in a sample is breaching, and
// breachAfter consecutive breaching samples roll it back — one-off blips
// survive, sustained regressions do not.
const (
	pauseFrames          = nic.DefaultPauseFrames
	sampleEvery          = 5 * sim.Microsecond
	breachAfter          = 2
	maxTrapsPerSample    = 0
	maxDropsPerSample    = 0
	maxChecksumPerSample = 0
)

// Config tunes the manager. The zero value is usable.
type Config struct {
	// CanaryWindow is how long the old generation is retained after cutover
	// while the new one proves itself (default 200 µs).
	CanaryWindow sim.Duration
}

func (c Config) canaryWindow() sim.Duration {
	if c.CanaryWindow > 0 {
		return c.CanaryWindow
	}
	return 200 * sim.Microsecond
}

// Manager sequences live upgrades of one NIC's interposition layer. Like the
// health monitor it lives on one engine's event loop, samples by counter
// deltas, and is deterministic by construction — no wall clock, no RNG.
type Manager struct {
	eng    *sim.Engine
	n      *nic.NIC
	cfg    Config
	tracer *telemetry.Tracer
	rec    *recovery.Manager

	phase Phase
	// pre is the handover taken at Stage time, nil outside an upgrade: what
	// the cutover warm-transfers from and a rollback warm-restores from.
	pre *handover
	// stagedIng remembers the staged ingress chain: warm transfer across the
	// cutover is only sound when it is the very chain the handover's entries
	// were computed under (a same-policy flip, e.g. a bitstream respin).
	stagedIng *overlay.Program
	// The canary: its sampler, when its window closes, the breach run, and the
	// three counters it reads as per-sample signals.
	canary               *supervise.Sampler
	canaryUntil          sim.Time
	breach               supervise.Streak
	traps, drops, ckFail supervise.Delta
	// lastReason records why the most recent rollback happened.
	lastReason string

	// Counters (surfaced as norman_upgrade_* and in UpgradeStatus).
	Upgrades       uint64 // cutovers initiated
	Commits        uint64
	Rollbacks      uint64
	CanarySamples  uint64
	CanaryBreaches uint64 // breaching samples observed
	WarmEntries    uint64 // flow-cache entries warm-transferred across flips
	Adoptions      uint64 // daemon hot-restarts that re-adopted the live generation
}

// handover is what one generation hands the next across the flip: the
// ingress chain live at Stage and the flow-cache entries computed under it.
type handover struct {
	ingress *overlay.Program
	cache   []nic.FlowEntryExport
}

// New builds a manager over a world's engine and NIC.
func New(eng *sim.Engine, n *nic.NIC, cfg Config) *Manager {
	m := &Manager{eng: eng, n: n, cfg: cfg}
	m.canary = supervise.NewSampler(eng, sampleEvery, m.sample)
	return m
}

// SetTracer attaches a trace sink: every stage, cutover, canary verdict,
// commit and rollback becomes a span event on the "upgrade" layer.
func (m *Manager) SetTracer(tr *telemetry.Tracer) { m.tracer = tr }

// SetRecovery attaches the recovery manager so upgrade intent is journaled
// write-ahead like every other control-plane mutation.
func (m *Manager) SetRecovery(rec *recovery.Manager) { m.rec = rec }

// Phase returns the lifecycle phase.
func (m *Manager) Phase() Phase { return m.phase }

// Generation returns the NIC's live pipeline generation.
func (m *Manager) Generation() uint64 { return m.n.Generation() }

// LastRollbackReason reports why the most recent rollback fired, "" if none.
func (m *Manager) LastRollbackReason() string { return m.lastReason }

// span records one upgrade lifecycle event when tracing is on.
func (m *Manager) span(now sim.Time, point, note string) {
	if m.tracer == nil {
		return
	}
	m.tracer.Record(m.tracer.StampID(), now, "upgrade", point, note)
}

// Stage takes the handover (the live ingress chain and the flow-cache
// entries), verifies the new generation's chains and stages them into the
// NIC's shadow bank, charged against the SRAM budget. The intent is
// journaled write-ahead (OpUpgrade, Ref = target generation) when recovery
// is attached.
func (m *Manager) Stage(now sim.Time, ing, eg *overlay.Program) error {
	if m.phase == Staged || m.phase == Canary {
		return fmt.Errorf("%w: phase %v", ErrBusy, m.phase)
	}
	pre := &handover{}
	if mach := m.n.Machine(nic.Ingress); mach != nil {
		pre.ingress = mach.Program()
	}
	if fc := m.n.FlowCache(); fc != nil {
		pre.cache = fc.Export()
	}
	if err := m.n.StageGeneration(now, ing, eg); err != nil {
		return err
	}
	m.pre = pre
	m.stagedIng = ing
	m.phase = Staged
	if m.rec != nil {
		m.rec.Record(now, recovery.Entry{Op: recovery.OpUpgrade, Ref: m.n.Generation() + 1})
	}
	m.span(now, "stage", fmt.Sprintf("target_gen=%d sram_staged", m.n.Generation()+1))
	return nil
}

// CutOver flips the epoch: ingress is paused (bounded buffer, typed overflow
// drops), the staged generation is activated at a packet boundary, compatible
// flow-cache entries are warm-transferred and re-validated against the new
// chain, ingress resumes, and the canary window opens with the old generation
// retained for rollback. Returns the pause duration (the activation's MMIO
// cost) — the entire dataplane impact of the upgrade.
func (m *Manager) CutOver(now sim.Time) (sim.Duration, error) {
	if m.phase != Staged {
		return 0, ErrNotStaged
	}
	if err := m.n.PauseRx(pauseFrames); err != nil {
		return 0, err
	}
	load, err := m.n.ActivateStaged(now)
	if err != nil {
		_ = m.n.ResumeRx()
		return 0, err
	}
	m.Upgrades++
	m.phase = Canary
	m.span(now, "cutover", fmt.Sprintf("gen=%d pause=%v", m.n.Generation(), load))

	// The flip costs MMIO time: hold the pause for exactly that long, then
	// warm the new generation's cache from the handover and replay the
	// buffered frames — they see the new chain, losing only latency.
	m.eng.At(now.Add(load), func() {
		resumeAt := m.eng.Now()
		// A cached verdict is only valid under the chain that computed it:
		// warm-transfer across the flip only when the new generation runs the
		// same ingress chain the entries were built under (a same-policy
		// upgrade). A policy change starts cold by design — the slow path
		// recomputes and refills.
		if m.pre != nil && m.stagedIng == m.pre.ingress {
			m.warmTransfer(resumeAt)
		}
		if err := m.n.ResumeRx(); err == nil {
			m.span(resumeAt, "resume", fmt.Sprintf("buffered=%d", m.n.RxPauseBuffered))
		}
		m.startCanary(resumeAt)
	})
	return load, nil
}

// warmTransfer re-installs the handover's flow-cache entries under the new
// generation, re-validated by construction: installs only happen when the
// live ingress chain is flow-memoizable (overlay.Machine.Cacheable, via the NIC's
// install gate), and each entry passes through the cache's own ledgered
// Install path — Installs − Evictions − Invalidations == Len() still holds.
func (m *Manager) warmTransfer(now sim.Time) {
	if m.pre == nil || len(m.pre.cache) == 0 {
		return
	}
	fc := m.n.FlowCache()
	if fc == nil || !m.n.IngressCacheable() {
		return
	}
	warmed := 0
	for _, e := range m.pre.cache {
		if fc.Install(e.Key, e.ConnID, e.Tenant, e.Verdict, e.Mark, e.Class) {
			warmed++
		}
	}
	m.WarmEntries += uint64(warmed)
	m.span(now, "warm_transfer", fmt.Sprintf("entries=%d of %d", warmed, len(m.pre.cache)))
}

// startCanary arms the post-cutover watch: counter-delta samples of pipeline
// traps, ingress verdict drops and flow-cache checksum failures, with the
// old generation held for rollback until the window expires clean.
func (m *Manager) startCanary(now sim.Time) {
	m.canaryUntil = now.Add(m.cfg.canaryWindow())
	m.breach = supervise.Streak{}
	m.traps.Take(m.n.Traps())
	m.drops.Take(m.n.RxDropVerdict)
	m.ckFail.Take(m.n.ChecksumFails())
	m.canary.Start(0)
}

// Running reports whether the canary sampler is armed.
func (m *Manager) Running() bool { return m.canary.Running() }

// Pause halts the canary sampler without resolving the canary — the old
// generation stays retained — and Resume re-arms it if the canary is still
// open. System.Run brackets its drain with the pair.
func (m *Manager) Pause() { m.canary.Pause() }

// Resume undoes Pause.
func (m *Manager) Resume() { m.canary.Resume() }

// sample takes one canary reading; it ends the sampler's run (false) once the
// canary has resolved either way.
func (m *Manager) sample(now sim.Time) bool {
	if m.phase != Canary {
		return false
	}
	m.CanarySamples++
	dTraps := m.traps.Take(m.n.Traps())
	dDrops := m.drops.Take(m.n.RxDropVerdict)
	dCk := m.ckFail.Take(m.n.ChecksumFails())

	dir := 0
	if dTraps > maxTrapsPerSample || dDrops > maxDropsPerSample || dCk > maxChecksumPerSample {
		dir = +1
		m.CanaryBreaches++
		// Hot+1: the run length this sample makes, before Step may restart it.
		m.span(now, "canary_breach", fmt.Sprintf("traps=%d drops=%d ck=%d streak=%d", dTraps, dDrops, dCk, m.breach.Hot+1))
	}
	if m.breach.Step(dir, breachAfter, 0) > 0 {
		m.rollback(now, fmt.Sprintf("canary breach: traps=%d drops=%d ck=%d over %d samples",
			dTraps, dDrops, dCk, breachAfter))
		return false
	}
	if !now.Before(m.canaryUntil) {
		m.commit(now)
		return false
	}
	return true
}

// commit resolves the canary in favor of the new generation.
func (m *Manager) commit(now sim.Time) {
	if err := m.n.CommitGeneration(now); err != nil {
		return
	}
	m.phase = Committed
	m.canary.Stop()
	m.Commits++
	m.pre = nil
	m.span(now, "commit", fmt.Sprintf("gen=%d", m.n.Generation()))
}

// Rollback forces an immediate revert to the retained old generation (the
// ctl upgrade.start rollback leg and E16's forced-rollback arm).
func (m *Manager) Rollback(now sim.Time, reason string) error {
	if m.phase != Canary {
		return ErrNotInCanary
	}
	m.rollback(now, reason)
	return nil
}

// rollback reverts the flip: ingress pauses again for the reverse swap, the
// old generation is reinstalled, the pre-upgrade cache entries are
// warm-restored, and ingress resumes — the same hitless mechanics as the
// cutover, pointed backwards.
func (m *Manager) rollback(now sim.Time, reason string) {
	if err := m.n.PauseRx(pauseFrames); err != nil && !errors.Is(err, nic.ErrRxPaused) {
		return
	}
	if err := m.n.RollbackGeneration(now); err != nil {
		_ = m.n.ResumeRx()
		return
	}
	m.Rollbacks++
	m.phase = RolledBack
	m.canary.Stop()
	m.lastReason = reason
	m.warmTransfer(now) // restore the pre-upgrade fast path
	_ = m.n.ResumeRx()
	m.pre = nil
	m.span(now, "rollback", fmt.Sprintf("gen=%d reason=%s", m.n.Generation(), reason))
}

// OnControlPlaneCrash is the chaos hook: a control plane that dies during a
// canary window cannot supervise the new generation, so the dataplane
// reverts to the proven one immediately — fail toward the configuration that
// was demonstrably working.
func (m *Manager) OnControlPlaneCrash(now sim.Time) {
	if m.phase == Canary {
		m.rollback(now, "control plane crashed during canary window")
	}
}

// Adopt is the daemon hot-restart path: a new normand process replayed the
// journal and found the dataplane already running some generation. Adoption
// records that generation as ours without touching the dataplane — no flip,
// no flush, no pause. An open canary cannot survive its supervisor's death;
// if the NIC still retains a previous generation, adoption resolves it by
// committing (the dataplane has been serving the new generation all along).
func (m *Manager) Adopt(now sim.Time) uint64 {
	m.Adoptions++
	if m.n.InCanary() {
		m.commit(now)
	} else if m.phase == Canary {
		m.phase = Committed
		m.canary.Stop()
	}
	gen := m.n.Generation()
	m.span(now, "adopt", fmt.Sprintf("gen=%d", gen))
	return gen
}

// RegisterMetrics exposes the manager's counters and lifecycle state on a
// telemetry registry (the norman_upgrade_* series in OBSERVABILITY.md).
func (m *Manager) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	r.Counter(telemetry.Desc{Layer: "upgrade", Name: "upgrades", Help: "generation cutovers initiated", Unit: "events"},
		labels, func() uint64 { return m.Upgrades })
	r.Counter(telemetry.Desc{Layer: "upgrade", Name: "commits", Help: "canary windows resolved in favor of the new generation", Unit: "events"},
		labels, func() uint64 { return m.Commits })
	r.Counter(telemetry.Desc{Layer: "upgrade", Name: "rollbacks", Help: "generations reverted (canary breach, crash, or forced)", Unit: "events"},
		labels, func() uint64 { return m.Rollbacks })
	r.Counter(telemetry.Desc{Layer: "upgrade", Name: "canary_samples", Help: "canary watch samples taken", Unit: "samples"},
		labels, func() uint64 { return m.CanarySamples })
	r.Counter(telemetry.Desc{Layer: "upgrade", Name: "canary_breaches", Help: "canary samples that breached the trap/drop/checksum budget", Unit: "samples"},
		labels, func() uint64 { return m.CanaryBreaches })
	r.Counter(telemetry.Desc{Layer: "upgrade", Name: "warm_entries", Help: "flow-cache entries warm-transferred across generation flips", Unit: "entries"},
		labels, func() uint64 { return m.WarmEntries })
	r.Counter(telemetry.Desc{Layer: "upgrade", Name: "adoptions", Help: "daemon hot-restarts that re-adopted the live generation without a flip", Unit: "events"},
		labels, func() uint64 { return m.Adoptions })
	r.Gauge(telemetry.Desc{Layer: "upgrade", Name: "generation", Help: "live pipeline generation number", Unit: "generation"},
		labels, func() float64 { return float64(m.n.Generation()) })
	r.Gauge(telemetry.Desc{Layer: "upgrade", Name: "phase", Help: "upgrade lifecycle phase (0 idle, 1 staged, 2 canary, 3 committed, 4 rolledback)", Unit: "phase"},
		labels, func() float64 { return float64(m.phase) })
}
