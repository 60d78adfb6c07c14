package arch

import (
	"norman/internal/filter"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
)

// KernelStack is the traditional in-kernel dataplane (§1's baseline): every
// packet crosses the user/kernel boundary (syscall + copy — virtual data
// movement), netfilter and the qdisc run in software, and the NIC is a dumb
// queue the kernel owns. Full manageability, two transfers per packet, and
// the software stack as the bottleneck. The interposition itself is soft's;
// this file is the crossing, RSS multi-queue, and the crash.
type KernelStack struct {
	soft

	qIndex map[uint64]int // kernel NIC queue → its softirq core (RSS multi-queue when >1)

	// cpDown marks the control plane crashed. On this architecture the
	// control plane IS the dataplane — the same kernel stack that holds the
	// policy tables also moves every packet — so a crash stops traffic:
	// sends and softirq deliveries are dropped (rings reset on reboot)
	// until restart, under tx_outage / rx_outage; E10 tables the contrast
	// against the ring architectures, whose NICs keep forwarding.
	cpDown bool
}

// NewKernelStack builds the architecture on a world.
func NewKernelStack(w *World) *KernelStack {
	a := &KernelStack{qIndex: map[uint64]int{}}
	a.init(w, sim.Duration(w.Model.KernelStackFixed))
	// The kernel owns one NIC queue pair per softirq core; RSS spreads
	// inbound flows across them (multi-queue NICs + RPS, as real kernels
	// configure). Queue 0 also carries all TX and management.
	kernProc := w.Kern.Spawn(0, "kernel")
	nq := w.KernQueues()
	ids := make([]uint64, nq)
	for i := range ids {
		q := a.openQueue(kernProc, packet.FlowKey{SrcPort: uint16(i)})
		if i == 0 {
			a.q = q
		}
		a.qIndex[q.ID] = i
		ids[i] = q.ID
	}
	if nq > 1 {
		if err := w.NIC.SetRSS(nic.DefaultRSSKey, ids); err != nil {
			panic("arch: kernel rss: " + err.Error())
		}
	} else {
		w.NIC.SetDefaultConn(ids[0])
	}
	w.NIC.OnRxDeliver = a.onRxDeliver
	return a
}

// Name implements Arch.
func (a *KernelStack) Name() string { return "kernelstack" }

// Send is the two-transfer TX path: syscall + copy into the kernel on the
// app core, then protocol work, filtering, qdisc and doorbell in the kernel.
func (a *KernelStack) Send(c *Conn, p *packet.Packet) {
	a.sent++
	if a.cpDown {
		a.hostDrop(p, c.Info.ID, HostTxOutage)
		return
	}
	// Transfer 1: user -> kernel.
	m := &a.w.Model
	_, sysDone := c.core.Acquire(a.w.Eng.Now(), sim.Duration(m.Syscall)+m.Copy(p.FrameLen()))
	a.w.Eng.At(sysDone, func() { a.kernelTx(c, p) })
}

// SendBatch is sendmmsg(2): one syscall crossing amortized over the burst,
// with the copies and all in-kernel work still paid per packet.
func (a *KernelStack) SendBatch(c *Conn, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	a.sent += uint64(len(pkts))
	if a.cpDown {
		for _, p := range pkts {
			a.hostDrop(p, c.Info.ID, HostTxOutage)
		}
		return
	}
	m := &a.w.Model
	cost := sim.Duration(m.Syscall)
	for _, p := range pkts {
		cost += m.Copy(p.FrameLen())
	}
	batch := append([]*packet.Packet(nil), pkts...)
	_, sysDone := c.core.Acquire(a.w.Eng.Now(), cost)
	a.w.Eng.At(sysDone, func() {
		for _, p := range batch {
			a.kernelTx(c, p)
		}
	})
}

// kernelTx is the in-kernel half of the TX path. As in Linux, it executes
// synchronously in process context on the *sender's* core (sendmsg runs the
// stack down to the driver), which is what makes the kernel stack
// self-backpressuring: an application cannot offer more than its core can
// push through the stack.
func (a *KernelStack) kernelTx(c *Conn, p *packet.Packet) {
	if a.cpDown {
		a.hostDrop(p, c.Info.ID, HostTxOutage)
		return
	}
	a.egress(c, p, c.core, 0)
}

// onRxDeliver is the kernel softirq path, on the core of the queue the frame
// landed in: interpose, then transfer 2 — the kernel -> user copy, charged on
// the app core along with the recv syscall, after the wake (or at the
// receiver's next poll).
func (a *KernelStack) onRxDeliver(nc *nic.Conn, _ sim.Time) {
	qi, ok := a.qIndex[nc.ID]
	if !ok {
		return
	}
	p, ok := a.pop(nc)
	if !ok {
		return
	}
	if a.cpDown {
		// The crashed kernel is not running softirqs; the descriptor is
		// popped (rings reset on reboot) and the frame is gone.
		a.hostDrop(p, 0, HostRxOutage)
		return
	}
	if c, kdone := a.ingress(p, a.w.KernCoreN(qi)); c != nil {
		m := &a.w.Model
		a.deliverTo(c, p, kdone, sim.Duration(m.Syscall)+m.Copy(p.FrameLen()))
	}
}

// CrashControlPlane implements ControlPlaneCrasher: a kernel-stack crash
// takes the policy tables *and* the dataplane with it — netfilter chains,
// qdisc (with whatever it queued) and classifier evaporate, and until restart
// every packet in either direction is dropped.
func (a *KernelStack) CrashControlPlane() {
	a.cpDown = true
	a.fw = filter.NewEngine(true)
	a.hostDropQueued(a.sched, HostTxOutage)
	a.sched, a.classify = nil, nil
}

// RestartControlPlane implements ControlPlaneCrasher; the reconciler
// reinstalls policies afterwards.
func (a *KernelStack) RestartControlPlane() { a.cpDown = false }

// ControlPlaneDown implements ControlPlaneCrasher.
func (a *KernelStack) ControlPlaneDown() bool { return a.cpDown }
