package arch

import (
	"fmt"

	"norman/internal/filter"
	"norman/internal/sniff"
)

// Hypervisor is the AccelNet-style NIC switch (§1, [13]): policies execute
// on the NIC as 5-tuple flow rules, so it has a global view of traffic —
// but it is logically isolated from the OS, so it has no process view and
// cannot signal processes. The E2 matrix hinges on exactly this gap.
type Hypervisor struct {
	direct
}

// NewHypervisor builds the architecture on a world.
func NewHypervisor(w *World) *Hypervisor {
	a := &Hypervisor{}
	a.init(w, false)
	return a
}

// Name implements Arch.
func (a *Hypervisor) Name() string { return "hypervisor" }

// Caps implements Arch.
func (a *Hypervisor) Caps() Caps {
	return Caps{
		GlobalCapture: true, // sees all frames, but unattributed
		FlowQoS:       true,
		Transfers:     1,
	}
}

// InstallRule accepts 5-tuple rules and compiles them onto the NIC; owner
// rules are impossible without the OS's process table.
func (a *Hypervisor) InstallRule(h filter.Hook, r *filter.Rule) error {
	if err := a.fw.Append(h, r); err != nil {
		return err
	}
	if _, err := a.reloadPrograms(); err != nil {
		return fmt.Errorf("arch: hypervisor program load: %w", err)
	}
	return nil
}

// FlushRules implements Arch.
func (a *Hypervisor) FlushRules() error {
	a.fw.Flush(filter.HookInput)
	a.fw.Flush(filter.HookOutput)
	_, err := a.reloadPrograms()
	return err
}

// AttachTap captures on the NIC, but expressions needing process
// attribution cannot be evaluated.
func (a *Hypervisor) AttachTap(e *sniff.Expr) (*sniff.Tap, error) {
	if e != nil && e.RequiresProcessView() {
		return nil, fmt.Errorf("%w: capture filter %q needs a process view", ErrUnsupported, e)
	}
	return a.attachNICTap(e)
}
