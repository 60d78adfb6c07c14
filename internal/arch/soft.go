package arch

import (
	"norman/internal/filter"
	"norman/internal/kernel"
	"norman/internal/mem"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/sniff"
)

// soft is the shared machinery of the two architectures that interpose in
// host software (kernelstack, sidecar), as direct is for the three whose
// applications own NIC rings: the software filter engine, the qdisc and its
// classifier, the tap, the NIC queue the dataplane transmits on, and the
// steps both run identically — egress interposition, the BQL pump, ingress
// interposition — plus the admin surface over them. What §1 says differs —
// how a packet crosses between the application and the interposing core —
// stays in the architecture, which calls these steps and passes the
// difference as values: which core pays, what the crossing cost.
type soft struct {
	base

	fw       *filter.Engine
	classify func(*packet.Packet) uint32
	tap      *sniff.Tap

	q       *nic.Conn    // dataplane-owned NIC queue: all TX, and management
	fixed   sim.Duration // the interposing core's per-packet software cost
	pumping bool
}

// init wires the software dataplane into a world; like direct.init it runs on
// the struct's final heap location.
func (s *soft) init(w *World, fixed sim.Duration) {
	s.base.init(w)
	s.fixed = fixed
	s.fw = filter.NewEngine(true) // OS-integrated: it has the process view
	w.NIC.OnTransmit = w.SendOnWire
}

// openQueue registers a dataplane-owned connection and opens its NIC queue.
func (s *soft) openQueue(proc *kernel.Process, flow packet.FlowKey) *nic.Conn {
	ci, err := s.w.Kern.RegisterConn(proc, flow)
	if err != nil {
		panic("arch: registering dataplane queue: " + err.Error())
	}
	q, err := s.w.NIC.OpenConn(ci.ID, packet.Meta{ConnID: ci.ID}, nil)
	if err != nil {
		panic("arch: opening dataplane NIC queue: " + err.Error())
	}
	return q
}

// Caps implements Arch: interposition in host software can do everything the
// paper's scenarios ask, at two transfers per packet.
func (s *soft) Caps() Caps {
	return Caps{
		OwnerFiltering:     true,
		GlobalCapture:      true,
		CaptureAttribution: true,
		ProcessQoS:         true,
		FlowQoS:            true,
		BlockingIO:         true,
		ARPVisibility:      true,
		Transfers:          2,
	}
}

// Connect registers the connection in the kernel tables only — applications
// have no NIC resources of their own here. The interposing core sees every
// arrival, so blocking receive works and is the default.
func (s *soft) Connect(proc *kernel.Process, flow packet.FlowKey) (*Conn, error) {
	ci, err := s.w.Kern.RegisterConn(proc, flow)
	if err != nil {
		return nil, err
	}
	c := &Conn{Info: ci, Mode: RxBlock}
	s.register(c)
	return c, nil
}

// Close implements Arch.
func (s *soft) Close(c *Conn) error {
	s.unregister(c)
	return s.w.Kern.UnregisterConn(c.Info.ID)
}

// restamp replaces p's metadata with the kernel's trusted view of its
// connection. The lifecycle trace ID rides along (metadata replacement must
// not orphan the span) and an untraced packet is stamped on first contact.
func (s *soft) restamp(p *packet.Packet, ci *kernel.ConnInfo, enqueued sim.Time) {
	trace := p.Meta.Trace
	p.Meta = s.w.Kern.Meta(ci)
	p.Meta.Enqueued, p.Meta.Trace = enqueued, trace
	s.traceStamp(p)
}

// interpose runs the hook's chain over p and shows p to the tap and the
// kernel ARP cache.
func (s *soft) interpose(h filter.Hook, p *packet.Packet, now sim.Time) filter.Result {
	res := s.fw.Evaluate(h, p)
	if s.tap != nil {
		s.tap.Offer(p, now)
	}
	s.w.Kern.ARP().Observe(p, now, h == filter.HookOutput)
	return res
}

// egress is the interposing core's TX half: stamp trusted metadata from
// process context, OUTPUT chain, capture, then — once core has paid the fixed
// cost plus extra — classify and hand the packet to the qdisc or straight to
// the NIC. It returns when core finishes with p, accepted or not.
func (s *soft) egress(c *Conn, p *packet.Packet, core *sim.Server, extra sim.Duration) sim.Time {
	now := s.w.Eng.Now()
	s.restamp(p, c.Info, now)
	s.trace(p, now, "host", "syscall_send", "")
	res := s.interpose(filter.HookOutput, p, now)
	_, done := core.Acquire(now, s.fixed+extra+softFilterCost(&s.w.Model, res))
	if res.Action != filter.ActAccept {
		s.hostDrop(p, c.Info.ID, HostTxFilter)
		return done
	}
	s.w.Eng.At(done, func() {
		if s.classify != nil {
			p.Meta.Class = s.classify(p)
		}
		if s.sched == nil {
			s.pushToNIC(p, core)
			return
		}
		if !s.sched.Enqueue(p, s.w.Eng.Now()) {
			s.hostDrop(p, c.Info.ID, HostTxQdisc)
		}
		s.pumpTx()
	})
	return done
}

// pumpTx drains the software qdisc into the NIC ring, one pending event at
// a time.
func (s *soft) pumpTx() {
	if s.pumping || s.sched == nil {
		return
	}
	now := s.w.Eng.Now()
	at, ok := s.sched.ReadyAt(now)
	if !ok {
		return
	}
	if at < now {
		at = now
	}
	s.pumping = true
	s.w.Eng.At(at, func() {
		s.pumping = false
		if s.sched == nil {
			return // the qdisc was taken away while the pump slept
		}
		// Byte-queue-limit: keep only a few frames in the NIC ring so the
		// qdisc — not the FIFO ring — is where packets wait. Without this
		// the deep ring erases the scheduler's differentiation, the exact
		// bufferbloat problem BQL fixes in Linux.
		if s.q.TX.Len() >= 4 {
			// NIC ring backpressure: retry after roughly one frame time.
			s.pumping = true
			s.w.Eng.After(s.w.Model.Wire(1538), func() {
				s.pumping = false
				s.pumpTx()
			})
			return
		}
		now := s.w.Eng.Now()
		if p, ok := s.sched.Dequeue(now); ok {
			// pushToNIC re-arms the pump once its push has landed, so the
			// BQL check above always sees the true ring occupancy. The
			// dequeue runs in softirq context: the kernel core pays.
			s.pushToNIC(p, s.w.KernCore())
			return
		}
		// The pump slept on a qdisc SetQdisc has since replaced: arm the
		// new one at its own instant. A qdisc that declines at its own
		// ReadyAt gets no retry; it keeps its backlog and balance says so.
		if at, ok := s.sched.ReadyAt(now); ok && at > now {
			s.pumpTx()
		}
	})
}

// pushToNIC is the last transfer down: descriptor ring + doorbell on the
// dataplane's NIC queue, charged to whichever core runs it.
func (s *soft) pushToNIC(p *packet.Packet, core *sim.Server) {
	m := &s.w.Model
	_, done := core.Acquire(s.w.Eng.Now(), m.Cycles(30)+sim.Duration(m.MMIOWrite))
	s.w.Eng.At(done, func() {
		if err := s.q.TX.Push(mem.Desc{Pkt: p, Produced: p.Meta.Enqueued}); err != nil {
			s.hostDrop(p, p.Meta.ConnID, HostTxRing)
			return
		}
		s.handed++
		s.trace(p, s.w.Eng.Now(), "ring", "tx_enqueue", "kernel queue")
		s.w.NIC.DoorbellTx(s.q)
		s.pumpTx()
	})
}

// pop takes the next frame off a dataplane-owned NIC queue.
func (s *soft) pop(nc *nic.Conn) (*packet.Packet, bool) {
	desc, err := nc.RX.Pop()
	if err != nil {
		return nil, false
	}
	s.popped++
	return desc.Pkt, true
}

// ingress is the interposing core's RX half for a popped frame: demux to the
// owning socket first, so filtering and capture carry attribution; INPUT
// chain, capture; charge core. Frames for the host itself — ARP and ICMP
// echo, which applications never see here — are answered and absorbed. A
// non-nil c means p is c's to deliver once core is done with it at done.
func (s *soft) ingress(p *packet.Packet, core *sim.Server) (c *Conn, done sim.Time) {
	now := s.w.Eng.Now()
	var conn uint64
	if k, isFlow := p.Flow(); isFlow {
		if ci, known := s.w.Kern.ConnByFlow(k.Reverse()); known {
			if c = s.conns[ci.ID]; c != nil {
				conn = ci.ID
				s.restamp(p, ci, p.Meta.Enqueued)
			}
		}
	}
	res := s.interpose(filter.HookInput, p, now)
	_, done = core.Acquire(now, s.fixed+softFilterCost(&s.w.Model, res))
	if res.Action != filter.ActAccept {
		s.hostDrop(p, conn, HostRxFilter)
	} else if reply := s.hostReply(p); reply != nil {
		s.absorbed++
		s.w.Eng.At(done, func() { s.w.NIC.InjectTx(reply) })
	} else if s.pingReply(p, now) {
		s.absorbed++
	} else if c == nil {
		s.hostDrop(p, 0, HostRxNoSocket)
	} else {
		return c, done
	}
	return nil, done
}

// SetRxMode supports both modes: the interposing core sees every arrival.
func (s *soft) SetRxMode(c *Conn, mode RxMode) error {
	c.Mode = mode
	if mode == RxPoll {
		s.w.MarkPoller(s.w.Core(c.Info.PID))
	} else {
		s.w.UnmarkPoller(s.w.Core(c.Info.PID))
	}
	return nil
}

// InstallRule implements Arch: software netfilter, full owner support.
func (s *soft) InstallRule(h filter.Hook, r *filter.Rule) error { return s.fw.Append(h, r) }

// FlushRules implements Arch.
func (s *soft) FlushRules() error {
	s.fw.Flush(filter.HookInput)
	s.fw.Flush(filter.HookOutput)
	return nil
}

// RuleHits reads the idx'th rule's software hit counter.
func (s *soft) RuleHits(h filter.Hook, idx int) (uint64, bool) {
	rules := s.fw.Chain(h).Rules
	if idx < 0 || idx >= len(rules) {
		return 0, false
	}
	return rules[idx].Packets, true
}

// SetQdisc installs a software qdisc on the interposing core's TX path. What
// the qdisc it replaces still holds is dropped with it.
func (s *soft) SetQdisc(q qos.Qdisc, classify func(*packet.Packet) uint32) error {
	s.hostDropQueued(s.sched, HostTxQdisc)
	s.sched, s.classify = q, classify
	return nil
}

// AttachTap captures on the interposing core with full attribution.
func (s *soft) AttachTap(e *sniff.Expr) (*sniff.Tap, error) {
	s.tap = sniff.NewTap(e, 0)
	return s.tap, nil
}

// Filter exposes the software engine (tools list rules through it).
func (s *soft) Filter() *filter.Engine { return s.fw }

// Qdisc exposes the software egress scheduler (the reconciler diffs it
// against journaled intent).
func (s *soft) Qdisc() qos.Qdisc { return s.sched }

// Ping sends a dataplane-originated ICMP echo and completes when ingress sees
// the reply.
func (s *soft) Ping(dst packet.IPv4, payload int, done func(sim.Duration, bool)) error {
	return s.ping(dst, payload, s.fixed, done)
}
