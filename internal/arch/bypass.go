package arch

import (
	"fmt"

	"norman/internal/filter"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sniff"
)

// Bypass is raw kernel bypass (DPDK / Arrakis dataplane, §1): applications
// own their rings, the NIC performs steering only, and there is no
// interposition point — the performance baseline and the manageability
// anti-pattern the paper opens with.
type Bypass struct {
	direct
}

// NewBypass builds the architecture on a world.
func NewBypass(w *World) *Bypass {
	a := &Bypass{}
	a.init(w, false)
	return a
}

// Name implements Arch.
func (a *Bypass) Name() string { return "bypass" }

// Caps implements Arch.
func (a *Bypass) Caps() Caps {
	return Caps{Transfers: 1}
}

// InstallRule implements Arch: there is nowhere to put a rule.
func (a *Bypass) InstallRule(h filter.Hook, r *filter.Rule) error {
	return fmt.Errorf("%w: no interposition point for %s rule", ErrUnsupported, h)
}

// FlushRules implements Arch.
func (a *Bypass) FlushRules() error { return nil }

// RuleHits implements Arch: there are no rules to count.
func (a *Bypass) RuleHits(filter.Hook, int) (uint64, bool) { return 0, false }

// SetQdisc implements Arch: applications cannot run a work-conserving
// scheduler over traffic they cannot see (§2 QoS).
func (a *Bypass) SetQdisc(q qos.Qdisc, classify func(*packet.Packet) uint32) error {
	return fmt.Errorf("%w: no global scheduling point", ErrUnsupported)
}

// AttachTap implements Arch: no component sees cross-application traffic.
func (a *Bypass) AttachTap(e *sniff.Expr) (*sniff.Tap, error) {
	return nil, fmt.Errorf("%w: no global capture point", ErrUnsupported)
}
