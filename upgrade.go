package norman

import (
	"fmt"

	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/upgrade"
)

// EnableLiveUpgrade attaches the live-upgrade subsystem (DESIGN.md §12):
// staged A/B pipeline generations on the NIC, warm flow-cache handover
// across the epoch flip, a canary window with automatic rollback, and
// hot-restart adoption. Upgrade intent is journaled when recovery is
// enabled, before or after this call. Idempotent; returns the manager either
// way.
func (s *System) EnableLiveUpgrade(cfg upgrade.Config) *upgrade.Manager {
	if s.up == nil {
		s.up = upgrade.New(s.w.Eng, s.w.NIC, cfg)
		s.attach(partCanary, s.up)
	}
	return s.up
}

// Upgrade returns the live-upgrade manager, nil before EnableLiveUpgrade.
func (s *System) Upgrade() *upgrade.Manager { return s.up }

// StageUpgrade takes the handover and stages a new overlay
// generation (ingress, egress — either may be nil to carry the hook empty)
// into the NIC's shadow bank. Mutations gate on the control plane being up,
// like every other admin verb.
func (s *System) StageUpgrade(ing, eg *overlay.Program) error {
	if err := s.gate(); err != nil {
		return err
	}
	up := s.EnableLiveUpgrade(upgrade.Config{})
	return up.Stage(s.w.Eng.Now(), ing, eg)
}

// CutOverUpgrade activates the staged generation: ingress pauses into the
// bounded buffer, the epoch flips at a packet boundary, compatible flow-cache
// entries warm-transfer, and the canary window opens. Returns the pause
// duration (the flip's whole dataplane cost).
func (s *System) CutOverUpgrade() (Duration, error) {
	if err := s.gate(); err != nil {
		return 0, err
	}
	if s.up == nil {
		return 0, fmt.Errorf("norman: cutover: EnableLiveUpgrade first")
	}
	return s.up.CutOver(s.w.Eng.Now())
}

// RollbackUpgrade forces an immediate revert to the retained generation
// while a canary window is open.
func (s *System) RollbackUpgrade(reason string) error {
	if s.up == nil {
		return fmt.Errorf("norman: rollback: EnableLiveUpgrade first")
	}
	return s.up.Rollback(s.w.Eng.Now(), reason)
}

// StartLiveUpgrade is the one-shot ctl path (upgrade.start): it restages the
// currently live overlay chains as a new generation — a same-policy upgrade,
// the safest possible flip — and cuts over immediately. The canary window
// then commits or rolls back on its own.
func (s *System) StartLiveUpgrade() error {
	if err := s.gate(); err != nil {
		return err
	}
	up := s.EnableLiveUpgrade(upgrade.Config{})
	var progs [2]*overlay.Program
	for dir := nic.Ingress; dir <= nic.Egress; dir++ {
		if m := s.w.NIC.Machine(dir); m != nil {
			progs[dir] = m.Program()
		}
	}
	if err := up.Stage(s.w.Eng.Now(), progs[nic.Ingress], progs[nic.Egress]); err != nil {
		return err
	}
	_, err := up.CutOver(s.w.Eng.Now())
	return err
}

// UpgradeStatus is a point-in-time snapshot of the live-upgrade subsystem,
// shaped for the ctl upgrade.status op and nnetstat -upgrade.
type UpgradeStatus struct {
	Enabled        bool   `json:"enabled"`
	Phase          string `json:"phase"`
	Generation     uint64 `json:"generation"`
	Watching       bool   `json:"watching"`
	Upgrades       uint64 `json:"upgrades"`
	Commits        uint64 `json:"commits"`
	Rollbacks      uint64 `json:"rollbacks"`
	CanarySamples  uint64 `json:"canary_samples"`
	CanaryBreaches uint64 `json:"canary_breaches"`
	WarmEntries    uint64 `json:"warm_entries"`
	Adoptions      uint64 `json:"adoptions"`
	PauseBuffered  uint64 `json:"pause_buffered"`
	PauseDrops     uint64 `json:"pause_drops"`
	LastRollback   string `json:"last_rollback,omitempty"`
}

// UpgradeStatus snapshots the live-upgrade subsystem; Enabled is false
// before EnableLiveUpgrade (graceful degradation, like HealthStatus).
func (s *System) UpgradeStatus() UpgradeStatus {
	if s.up == nil {
		return UpgradeStatus{}
	}
	return UpgradeStatus{
		Enabled:        true,
		Phase:          s.up.Phase().String(),
		Generation:     s.up.Generation(),
		Watching:       s.up.Running(),
		Upgrades:       s.up.Upgrades,
		Commits:        s.up.Commits,
		Rollbacks:      s.up.Rollbacks,
		CanarySamples:  s.up.CanarySamples,
		CanaryBreaches: s.up.CanaryBreaches,
		WarmEntries:    s.up.WarmEntries,
		Adoptions:      s.up.Adoptions,
		PauseBuffered:  s.w.NIC.RxPauseBuffered,
		PauseDrops:     s.w.NIC.RxPauseDrop,
		LastRollback:   s.up.LastRollbackReason(),
	}
}
