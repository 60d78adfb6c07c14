package arch

import (
	"norman/internal/filter"
	"norman/internal/mem"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/sniff"
)

// KOPI is the paper's proposal (§3/§4): the bypass datapath — applications
// own rings, one transfer per packet — with the kernel's interposition
// logic executing on the NIC. The kernel programs per-connection trusted
// metadata (uid/pid/cmd), compiles firewall chains to overlay programs,
// installs the egress scheduler, and monitors notification queues so
// blocked threads can be woken (§4.3).
type KOPI struct {
	direct

	// LastProgramLoad is the control-plane latency of the most recent
	// overlay (re)load — E4's online-update metric.
	LastProgramLoad sim.Duration
}

// NewKOPI builds the architecture on a world.
func NewKOPI(w *World) *KOPI {
	a := &KOPI{}
	a.init(w, true, true)
	w.NIC.OnNotify = a.onNotify
	// The kernel configured the NIC, so the NIC reports dataplane ARP
	// traffic back to the kernel ARP cache — restoring the global view the
	// debugging scenario needs, with per-process attribution from the
	// stamped metadata.
	w.NIC.OnTransmit = func(p *packet.Packet, at sim.Time) {
		w.Kern.ARP().Observe(p, at, true)
		w.SendOnWire(p, at)
	}
	return a
}

// DeliverWire feeds inbound frames through the NIC, teaching the kernel ARP
// cache along the way. ARP requests for the host's address are answered by
// the kernel (which owns the NIC), after a slow-path trip — applications
// need not (and cannot reliably) speak ARP themselves under KOPI — as are
// echo requests; these frames never enter the NIC.
func (a *KOPI) DeliverWire(p *packet.Packet) {
	now := a.w.Eng.Now()
	a.w.Kern.ARP().Observe(p, now, false)
	if reply := a.hostReply(p); reply != nil {
		m := &a.w.Model
		_, done := a.w.KernCore().Acquire(now, sim.Duration(m.Interrupt)+m.Cycles(300))
		a.w.Eng.At(done, func() { a.w.NIC.InjectTx(reply) })
		return
	}
	if a.pingReply(p, now) {
		return
	}
	a.direct.DeliverWire(p)
}

// Name implements Arch.
func (a *KOPI) Name() string { return "kopi" }

// Caps implements Arch.
func (a *KOPI) Caps() Caps {
	return Caps{
		OwnerFiltering:     true,
		GlobalCapture:      true,
		CaptureAttribution: true,
		ProcessQoS:         true,
		FlowQoS:            true,
		BlockingIO:         true,
		ARPVisibility:      true,
		Transfers:          1,
	}
}

// InstallRule compiles the updated chain onto the NIC; owner rules work
// because connections carry kernel-programmed metadata.
func (a *KOPI) InstallRule(h filter.Hook, r *filter.Rule) error {
	if err := a.fw.Append(h, r); err != nil {
		return err
	}
	load, err := a.reloadPrograms()
	if err != nil {
		return err
	}
	a.LastProgramLoad = load
	return nil
}

// FlushRules implements Arch.
func (a *KOPI) FlushRules() error {
	a.fw.Flush(filter.HookInput)
	a.fw.Flush(filter.HookOutput)
	load, err := a.reloadPrograms()
	a.LastProgramLoad = load
	return err
}

// AttachTap captures on the NIC with full attribution.
func (a *KOPI) AttachTap(e *sniff.Expr) (*sniff.Tap, error) {
	return a.attachNICTap(e)
}

// SetRxMode adds blocking receive: the NIC appends to the process's
// notification queue and the kernel monitor wakes the thread (§4.3).
func (a *KOPI) SetRxMode(c *Conn, mode RxMode) error {
	c.Mode = mode
	if mode == RxPoll {
		c.NC.NotifyRx = false
		a.w.MarkPoller(a.w.Core(c.Info.PID))
		return nil
	}
	c.NC.NotifyRx = true
	a.w.UnmarkPoller(a.w.Core(c.Info.PID))
	return nil
}

// onNotify is the kernel control plane noticing a notification and waking
// the blocked owner: an interrupt on the kernel core, then a context switch
// on the app core; the woken thread drains its RX ring. At high arrival
// rates the per-notification interrupt dominates — which is why §4.3 lets
// the control plane enable coalescing (Conn.NotifyCoalesce) on busy queues.
func (a *KOPI) onNotify(nc *nic.Conn, kind mem.NotifyKind, at sim.Time) {
	if kind != mem.NotifyRxReady {
		return
	}
	c, _ := nc.Host.(*Conn)
	if c == nil || c.Mode != RxBlock {
		return
	}
	// Drain the process's notification queue (the monitor batches).
	for {
		if _, ok := nc.Queue.Pop(); !ok {
			break
		}
	}
	_, intrDone := a.w.KernCore().Acquire(at, sim.Duration(a.w.Model.Interrupt))
	wakeAt := intrDone.Add(sim.Duration(a.w.Model.ContextSwitch))
	a.w.hop(wakeAt, hopDrain, &a.base, c, nil)
}

// Ping sends a kernel-originated ICMP echo through the NIC's management
// path; the reply is intercepted on the kernel slow path.
func (a *KOPI) Ping(dst packet.IPv4, payload int, done func(sim.Duration, bool)) error {
	return a.ping(dst, payload, a.w.Model.Cycles(300), done)
}

// SetRxCoalesce sets the notification coalescing window for a blocked
// connection: at most one wake interrupt per window, with all packets that
// arrived meanwhile drained by that single wake.
func (a *KOPI) SetRxCoalesce(c *Conn, d sim.Duration) {
	c.NC.NotifyCoalesce = d
}

// drainBlocked consumes every pending descriptor for a woken connection,
// charging per-packet app costs sequentially on its core.
func (b *base) drainBlocked(c *Conn) {
	core := c.core
	for {
		slotAddr := c.NC.RX.TailAddr()
		desc, err := c.NC.RX.Pop()
		if err != nil {
			return
		}
		b.popped++
		p := desc.Pkt
		now := b.w.Eng.Now()
		_, done := core.Acquire(now, b.appRxCost(c, p, slotAddr))
		b.w.hop(done, hopUpcall, b, c, p)
	}
}
