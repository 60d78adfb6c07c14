package arch

import (
	"fmt"

	"norman/internal/filter"
	"norman/internal/kernel"
	"norman/internal/mem"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/sniff"
)

// direct is the shared machinery of the three architectures whose
// applications own NIC rings outright (bypass, hypervisor, kopi): one
// transfer per packet, MMIO doorbells, poll-mode receive by default.
type direct struct {
	base
	// trusted marks KOPI: the kernel programs trusted process metadata into
	// the NIC, and its control plane compiles rules with the kernel's process
	// view. The hypervisor compiles the same chains without either — the
	// paper's comparison.
	trusted bool

	// Firewall source of truth, compiled to overlay programs on the NIC.
	fw *filter.Engine

	// cpDown marks the control plane crashed. The dataplane is untouched:
	// applications own their rings and the NIC executes whatever was last
	// installed — the crash only wipes the control plane's policy memory
	// (fw) and refuses new mutations.
	cpDown bool
}

// init wires the direct machinery into a world. It must be called on the
// final (heap) location of the struct: the NIC callbacks capture d, so a
// copy after init would strand them on the old value.
func (d *direct) init(w *World, trusted bool) {
	d.base.init(w)
	d.trusted = trusted
	d.fw = filter.NewEngine(trusted)
	w.NIC.OnRxDeliver = d.onRxDeliver
	w.NIC.OnTransmit = w.SendOnWire
}

// Connect implements the §4.3 setup path: the application asks the kernel,
// the kernel registers the connection, allocates rings on the NIC, installs
// steering, and (KOPI only) programs the trusted metadata.
func (d *direct) Connect(proc *kernel.Process, flow packet.FlowKey) (*Conn, error) {
	ci, err := d.w.Kern.RegisterConn(proc, flow)
	if err != nil {
		return nil, err
	}
	meta := packet.Meta{ConnID: ci.ID}
	var queue *mem.NotifyQueue
	if d.trusted {
		meta = d.w.Kern.Meta(ci)
		queue = proc.Queue
	}
	nc, err := d.w.NIC.OpenConn(ci.ID, meta, queue)
	if err != nil {
		uerr := d.w.Kern.UnregisterConn(ci.ID)
		_ = uerr
		return nil, fmt.Errorf("arch: opening NIC conn: %w", err)
	}
	if err := d.w.NIC.SteerFlow(flow, ci.ID); err != nil {
		_ = d.w.NIC.CloseConn(ci.ID)
		_ = d.w.Kern.UnregisterConn(ci.ID)
		return nil, fmt.Errorf("arch: steering: %w", err)
	}
	c := &Conn{Info: ci, NC: nc, Mode: RxPoll}
	nc.Host = c
	d.register(c)
	d.w.MarkPoller(c.core)
	return c, nil
}

// Close implements Arch.
func (d *direct) Close(c *Conn) error {
	d.unregister(c)
	c.NC.Host = nil
	if err := d.w.NIC.CloseConn(c.Info.ID); err != nil {
		return err
	}
	return d.w.Kern.UnregisterConn(c.Info.ID)
}

// Send implements the one-transfer, zero-copy TX path: the application
// builds the payload in the pinned buffer in place, stages a descriptor, and
// rings the doorbell. The doorbell MMIO is only paid when the ring was idle —
// while a drain is in flight the NIC picks new descriptors up by itself, the
// batching every kernel-bypass runtime relies on.
func (d *direct) Send(c *Conn, p *packet.Packet) {
	core := c.core
	now := d.w.Eng.Now()
	hdr := p.FrameLen()
	if hdr > 128 {
		hdr = 128
	}
	cost := d.w.cycles(60) +
		d.memTouch(c.NC.TX.HeadAddr(), 64) +
		d.memTouch(d.w.NIC.BufAddr(c.NC, c.NC.TX.Head(), false), hdr)
	if c.NC.TX.Empty() {
		cost += sim.Duration(d.w.Model.MMIOWrite)
	}
	d.sent++
	d.traceStamp(p)
	d.trace(p, now, "host", "syscall_send", "")
	_, done := core.Acquire(now, cost)
	d.w.hop(done, hopSend, &d.base, c, p)
}

// postTx is Send's second half, once the core has paid the staging cost:
// publish the descriptor and ring the doorbell.
func (b *base) postTx(c *Conn, p *packet.Packet, now sim.Time) {
	if err := c.NC.TX.Push(mem.Desc{Pkt: p, Produced: now}); err != nil {
		b.hostDrop(p, c.Info.ID, HostTxRing)
		return
	}
	b.handed++
	b.trace(p, now, "ring", "tx_enqueue", "")
	b.w.NIC.DoorbellTx(c.NC)
}

// SendBatch stages a whole burst and rings the doorbell once — the
// tx_burst() pattern every kernel-bypass runtime uses, and the reason the
// per-packet MMIO cost does not throttle saturated senders.
func (d *direct) SendBatch(c *Conn, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	core := c.core
	now := d.w.Eng.Now()
	var cost sim.Duration
	for i, p := range pkts {
		hdr := p.FrameLen()
		if hdr > 128 {
			hdr = 128
		}
		idx := c.NC.TX.Head() + uint64(i)
		cost += d.w.cycles(60) +
			d.memTouch(c.NC.TX.SlotAddr(idx), 64) +
			d.memTouch(d.w.NIC.BufAddr(c.NC, idx, false), hdr)
	}
	cost += sim.Duration(d.w.Model.MMIOWrite) // one tail-pointer write for the burst
	d.sent += uint64(len(pkts))
	for _, p := range pkts {
		d.traceStamp(p)
		d.trace(p, now, "host", "syscall_send", "batched")
	}
	_, done := core.Acquire(now, cost)
	batch := append([]*packet.Packet(nil), pkts...)
	d.w.Eng.At(done, func() {
		now := d.w.Eng.Now()
		for _, p := range batch {
			if err := c.NC.TX.Push(mem.Desc{Pkt: p, Produced: now}); err != nil {
				d.hostDrop(p, c.Info.ID, HostTxRing)
				continue
			}
			d.handed++
			d.trace(p, now, "ring", "tx_enqueue", "")
		}
		d.w.NIC.DoorbellTx(c.NC)
	})
}

// onRxDeliver consumes packets landed in RX rings. Poll-mode connections
// consume immediately (their poll loop is always running); block-mode
// connections are drained by the notification wake path instead.
func (d *direct) onRxDeliver(nc *nic.Conn, at sim.Time) {
	c, _ := nc.Host.(*Conn)
	if c == nil || c.Mode != RxPoll {
		return
	}
	slotAddr := nc.RX.TailAddr()
	desc, err := nc.RX.Pop()
	if err != nil {
		return
	}
	d.popped++
	d.deliverPolled(c, desc.Pkt, at, d.appRxCost(c, desc.Pkt, slotAddr))
}

// SetRxMode implements Arch for the poll-only architectures; kopi overrides
// it to add blocking.
func (d *direct) SetRxMode(c *Conn, mode RxMode) error {
	if mode == RxBlock {
		return fmt.Errorf("%w: kernel cannot observe dataplane arrivals to wake threads", ErrUnsupported)
	}
	c.Mode = RxPoll
	d.w.MarkPoller(d.w.Core(c.Info.PID))
	return nil
}

// CrashControlPlane implements ControlPlaneCrasher: the control plane's
// policy memory is gone (fresh, empty filter engine), but nothing on the
// NIC changes — rings, steering, programs and scheduler keep running.
func (d *direct) CrashControlPlane() {
	d.cpDown = true
	d.fw = filter.NewEngine(d.trusted)
}

// RestartControlPlane implements ControlPlaneCrasher. The revived control
// plane still knows nothing; the reconciler repopulates it from the
// journal.
func (d *direct) RestartControlPlane() { d.cpDown = false }

// ControlPlaneDown implements ControlPlaneCrasher.
func (d *direct) ControlPlaneDown() bool { return d.cpDown }

// Filter exposes the control plane's rule memory — the reconciler diffs it
// against journaled intent.
func (d *direct) Filter() *filter.Engine { return d.fw }

// internCmd returns the command-interning function owner-rule compilation
// needs, or nil without a process view.
func (d *direct) internCmd() func(string) uint64 {
	if !d.trusted {
		return nil
	}
	return func(cmd string) uint64 { return uint64(d.w.Kern.CommandID(cmd)) }
}

// reloadPrograms compiles both firewall chains onto the NIC pipelines (§4.4's
// runtime configuration path: iptables → kernel → overlay program). Chains
// that are empty with ACCEPT policy unload their pipeline's program. An append
// renumbers no rule, so each rule's hit counter carries over from the machine
// its program replaces; after a flush there is nothing to carry. The returned
// duration is the control-plane load latency (MMIO writes).
func (d *direct) reloadPrograms() (sim.Duration, error) {
	var total sim.Duration
	for _, h := range []filter.Hook{filter.HookInput, filter.HookOutput} {
		dir, ch := hookDir(h), d.fw.Chain(h)
		if len(ch.Rules) == 0 && ch.Policy == filter.ActAccept {
			d.w.NIC.UnloadProgram(dir)
			continue
		}
		prog, err := filter.CompileOverlay(fmt.Sprintf("fw-%s", h), ch, d.internCmd())
		if err != nil {
			return total, err
		}
		old := d.w.NIC.Machine(dir)
		m, load, err := d.w.NIC.LoadProgram(dir, prog)
		if err != nil {
			return total, err
		}
		if old != nil {
			m.CarryCounters(old)
		}
		total += load
	}
	return total, nil
}

// hookDir is the NIC pipeline a hook's chain runs on.
func hookDir(h filter.Hook) nic.Direction {
	if h == filter.HookOutput {
		return nic.Egress
	}
	return nic.Ingress
}

// RuleHits reads the idx'th rule's hit counter from the compiled overlay
// program on the hook's pipeline (the `iptables -L -v` column, served from
// the NIC).
func (d *direct) RuleHits(h filter.Hook, idx int) (uint64, bool) {
	m := d.w.NIC.Machine(hookDir(h))
	if m == nil || idx < 0 || idx >= len(d.fw.Chain(h).Rules) {
		return 0, false
	}
	return m.Counter(fmt.Sprintf("hit%d", idx)), true
}

// SetQdisc installs the egress qdisc and its classifier on the NIC. The
// classifier sees the packet with whatever metadata the NIC stamped —
// trusted process attribution under KOPI, nothing useful without it.
func (d *direct) SetQdisc(q qos.Qdisc, classify func(*packet.Packet) uint32) error {
	d.w.NIC.SetScheduler(q)
	d.w.NIC.SetClassifier(classify)
	return nil
}

// Ping implements Arch for the architectures whose kernel cannot see an
// echo reply (it would land unsteered and be dropped): unsupported.
func (d *direct) Ping(dst packet.IPv4, payload int, done func(sim.Duration, bool)) error {
	return fmt.Errorf("%w: the kernel cannot receive ICMP replies on this dataplane", ErrUnsupported)
}

// attachNICTap installs a tap on the NIC pipeline.
func (d *direct) attachNICTap(e *sniff.Expr) (*sniff.Tap, error) {
	t := sniff.NewTap(e, 0)
	d.w.NIC.SetTap(t)
	return t, nil
}
