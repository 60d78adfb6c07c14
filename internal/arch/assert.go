package arch

// Compile-time checks that every architecture satisfies Arch.
var (
	_ Arch = (*KernelStack)(nil)
	_ Arch = (*Bypass)(nil)
	_ Arch = (*Sidecar)(nil)
	_ Arch = (*Hypervisor)(nil)
	_ Arch = (*KOPI)(nil)
)

// New constructs one architecture by name on a fresh world; unknown names
// return nil.
func New(name string, cfg WorldConfig) Arch {
	switch name {
	case "kernelstack":
		return NewKernelStack(NewWorld(cfg))
	case "bypass":
		return NewBypass(NewWorld(cfg))
	case "sidecar":
		return NewSidecar(NewWorld(cfg))
	case "hypervisor":
		return NewHypervisor(NewWorld(cfg))
	case "kopi":
		return NewKOPI(NewWorld(cfg))
	default:
		return nil
	}
}

// Names lists the architectures in canonical comparison order.
func Names() []string {
	return []string{"kernelstack", "bypass", "sidecar", "hypervisor", "kopi"}
}
