package norman

import (
	"fmt"

	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/recovery"
	"norman/internal/sim"
)

// Conn is an application connection: the §4.3 object. Opening one goes
// through the kernel control plane (which allocates rings and programs the
// NIC on ring-based architectures); sending and receiving afterwards touch
// only whatever dataplane the architecture provides.
type Conn struct {
	sys  *System
	c    *arch.Conn
	flow packet.FlowKey
}

// Dial opens a UDP connection from proc's local port to the peer's remote
// port (connect(2) in the paper's sketch).
func (s *System) Dial(proc *Process, localPort, remotePort uint16) (*Conn, error) {
	flow := s.kernFlow(localPort, remotePort)
	return s.dial(proc, flow)
}

// DialTCP opens a TCP-keyed connection (for reliable transfers via
// StartTransfer; the stream machinery itself runs in the library).
func (s *System) DialTCP(proc *Process, localPort, remotePort uint16) (*Conn, error) {
	flow := s.kernFlow(localPort, remotePort)
	flow.Proto = packet.ProtoTCP
	return s.dial(proc, flow)
}

// dial runs the journaled connection setup: conn.open is written before the
// kernel/NIC work, conn.bind (carrying the kernel-assigned id) after it
// succeeds. A crash between the two leaves a visibly incomplete pair the
// reconciler reports instead of resurrecting. With the overload governor
// enabled, admission control runs first: a typed AdmissionError (wrapping
// ErrAdmission) refuses the connection before any kernel or NIC state is
// touched, so rejection is free and leaves nothing to reconcile.
func (s *System) dial(proc *Process, flow packet.FlowKey) (*Conn, error) {
	if err := s.gate(); err != nil {
		return nil, fmt.Errorf("norman: dial %s: %w", flow, err)
	}
	if s.gov != nil {
		if err := s.gov.AdmitConn(s.w.Kern.TenantOf(proc.UID())); err != nil {
			return nil, fmt.Errorf("norman: dial %s: %w", flow, err)
		}
	}
	open := s.record(recovery.Entry{Op: recovery.OpConnOpen, Conn: &recovery.ConnRecord{
		Flow: flow, PID: proc.PID(), UID: proc.UID(), Command: proc.Command(),
	}})
	c, err := s.a.Connect(proc.p, flow)
	if err != nil {
		s.abortRecord(open)
		if s.gov != nil {
			s.gov.ReleaseConn(s.w.Kern.TenantOf(proc.UID()))
		}
		return nil, fmt.Errorf("norman: dial %s: %w", flow, err)
	}
	if open.Seq != 0 {
		s.record(recovery.Entry{Op: recovery.OpConnBind, Ref: open.Seq, ConnID: c.Info.ID})
	}
	return &Conn{sys: s, c: c, flow: flow}, nil
}

// Close releases the connection. Like every control-plane mutation it is
// journaled and refused while the control plane is down — the dataplane
// keeps the rings alive until teardown can be recorded.
func (c *Conn) Close() error {
	s := c.sys
	if err := s.gate(); err != nil {
		return err
	}
	e := s.record(recovery.Entry{Op: recovery.OpConnClose, ConnID: c.c.Info.ID})
	if err := s.a.Close(c.c); err != nil {
		s.abortRecord(e)
		return err
	}
	if s.gov != nil {
		s.gov.ReleaseConn(s.w.Kern.TenantOf(c.c.Info.UID))
	}
	return nil
}

// ID returns the kernel connection id.
func (c *Conn) ID() uint64 { return c.c.Info.ID }

// Send transmits one datagram with the given payload size.
func (c *Conn) Send(payload int) {
	c.sys.a.Send(c.c, c.sys.w.UDPTo(c.flow, payload))
}

// SendBatch transmits a burst, letting the architecture amortize what it
// can (doorbells, syscalls).
func (c *Conn) SendBatch(payload, count int) {
	pkts := make([]*packet.Packet, count)
	for i := range pkts {
		pkts[i] = c.sys.w.UDPTo(c.flow, payload)
	}
	c.sys.a.SendBatch(c.c, pkts)
}

// SendRaw transmits an arbitrary pre-built frame — the kernel-bypass
// freedom (and hazard) the paper's §2 scenarios hinge on: on ring-based
// architectures nothing stops an application from emitting frames that
// do not match its connection.
func (c *Conn) SendRaw(p *packet.Packet) {
	c.sys.a.Send(c.c, p)
}

// OnReceive installs the delivery handler for this connection. The handler
// goes with the connection: Close releases it.
func (c *Conn) OnReceive(fn func(Delivery)) {
	c.sys.mux.Handle(c.c, func(_ *arch.Conn, p *packet.Packet, at sim.Time) {
		d := Delivery{Payload: p.PayloadLen, At: sim.Duration(at)}
		if p.IP != nil {
			port := uint16(0)
			if p.UDP != nil {
				port = p.UDP.SrcPort
			}
			d.From = fmt.Sprintf("%s:%d", p.IP.Src, port)
		}
		fn(d)
	})
}

// SetBlocking selects blocking receive (true) or polling (false). Blocking
// needs an architecture where the kernel can observe arrivals (§2's process
// scheduling scenario); where it cannot, an error wrapping
// arch.ErrUnsupported is returned and the connection stays in poll mode.
func (c *Conn) SetBlocking(block bool) error {
	mode := arch.RxPoll
	if block {
		mode = arch.RxBlock
	}
	return c.sys.a.SetRxMode(c.c, mode)
}

// Delivered returns how many packets this connection's application has
// consumed.
func (c *Conn) Delivered() uint64 { return c.c.Delivered }

// SetRateLimit installs a per-connection egress rate limit (bytes/second)
// enforced by the NIC's pacing engine — the SENIC/PicNIC-style offload the
// paper folds into KOPI. It requires a ring-dataplane architecture (the
// connection must own NIC queues); rate <= 0 clears the limit.
func (c *Conn) SetRateLimit(bytesPerSecond float64) error {
	if c.c.NC == nil {
		return fmt.Errorf("norman: rate limit: %w", arch.ErrUnsupported)
	}
	// One millisecond of burst; a larger frame leaves the bucket in debt.
	return c.sys.w.NIC.SetConnRate(c.c.Info.ID, bytesPerSecond, bytesPerSecond/1000)
}
