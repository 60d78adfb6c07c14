// Package host provides the application and traffic-workload layer used by
// examples, tests and experiments: a per-connection delivery multiplexer,
// open-loop senders (constant-rate and Poisson), a closed-loop latency
// probe, peer-side generators and echo responders, and the misbehaving
// applications the paper's §2 scenarios feature (an ARP flooder, a port
// squatter, a chatty game client).
package host

import (
	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
)

// Handler consumes packets delivered to one connection.
type Handler func(c *arch.Conn, p *packet.Packet, at sim.Time)

// Mux fans an architecture's deliveries out to per-connection handlers. A
// handler rides on its connection (arch.Conn.Deliver), so it is garbage
// with the closed handle; the mux keeps only the fallback, installed as the
// architecture's deliver function.
type Mux struct{ a arch.Arch }

// NewMux takes over the architecture's deliver function: a connection
// without a handler gets the fallback, or nothing.
func NewMux(a arch.Arch) *Mux {
	a.SetDeliver(nil)
	return &Mux{a: a}
}

// Handle installs h as c's delivery handler; closing c drops it.
func (m *Mux) Handle(c *arch.Conn, h Handler) { c.Deliver = arch.DeliverFunc(h) }

// Fallback registers a handler for connections without one.
func (m *Mux) Fallback(h Handler) { m.a.SetDeliver(arch.DeliverFunc(h)) }

// Sender emits packets on a connection open-loop.
type Sender struct {
	Arch    arch.Arch
	Conn    *arch.Conn
	Flow    packet.FlowKey
	Payload int
	// Interval between sends; Poisson non-nil switches to exponential
	// inter-arrivals with Interval as the mean.
	Interval sim.Duration
	Poisson  *sim.RNG
	// Burst sends this many packets back-to-back per tick (doorbell
	// batching, as DPDK-style runtimes do); the tick interval stretches by
	// the same factor so the offered rate is unchanged. Default 1.
	Burst int

	Until sim.Time // stop time (exclusive)
	Sent  uint64
	Bytes uint64

	// Build overrides packet construction (default: UDP on Flow).
	Build func(seq uint64) *packet.Packet
}

// Start schedules the first send.
func (s *Sender) Start(at sim.Time) {
	w := s.Arch.World()
	w.Eng.At(at, s.tick)
}

func (s *Sender) tick() {
	w := s.Arch.World()
	now := w.Eng.Now()
	if s.Until > 0 && !now.Before(s.Until) {
		return
	}
	burst := s.Burst
	if burst < 1 {
		burst = 1
	}
	pkts := make([]*packet.Packet, 0, burst)
	for i := 0; i < burst; i++ {
		var p *packet.Packet
		if s.Build != nil {
			p = s.Build(s.Sent)
		} else {
			p = w.UDPTo(s.Flow, s.Payload)
		}
		s.Sent++
		s.Bytes += uint64(p.FrameLen())
		pkts = append(pkts, p)
	}
	if burst == 1 {
		s.Arch.Send(s.Conn, pkts[0])
	} else {
		s.Arch.SendBatch(s.Conn, pkts)
	}
	next := s.Interval * sim.Duration(burst)
	if s.Poisson != nil {
		next = s.Poisson.Exp(s.Interval * sim.Duration(burst))
	}
	if next <= 0 {
		next = sim.Nanosecond
	}
	at := now.Add(next)
	// A real sender thread is closed-loop with its core: it cannot issue
	// the next burst before the previous one's synchronous work retires.
	if free := w.Core(s.Conn.Info.PID).FreeAt(); free > at {
		at = free
	}
	w.Eng.At(at, s.tick)
}

// IntervalFor returns the send interval that offers rate gbps with the given
// frame length.
func IntervalFor(gbps float64, frameLen int) sim.Duration {
	return sim.Duration(float64(frameLen*8) / (gbps * 1e9) * float64(sim.Second))
}

// Probe is a closed-loop request/response latency meter: it sends one
// request, waits for the echo, records the RTT, and repeats.
type Probe struct {
	Arch    arch.Arch
	Conn    *arch.Conn
	Flow    packet.FlowKey
	Payload int
	Count   int // number of round trips to perform

	Hist stats.Histogram
	Done func() // called after the last response

	sent   int
	lastAt sim.Time
}

// Start wires the probe into the mux and sends the first request.
func (p *Probe) Start(m *Mux) {
	m.Handle(p.Conn, func(_ *arch.Conn, _ *packet.Packet, at sim.Time) {
		p.Hist.Observe(at.Sub(p.lastAt))
		if p.sent >= p.Count {
			if p.Done != nil {
				p.Done()
			}
			return
		}
		p.send()
	})
	p.send()
}

func (p *Probe) send() {
	w := p.Arch.World()
	p.sent++
	p.lastAt = w.Eng.Now()
	p.Arch.Send(p.Conn, w.UDPTo(p.Flow, p.Payload))
}

// EchoPeer returns a wire peer that echoes UDP packets back to the host
// after one return-propagation delay (the link is symmetric).
func EchoPeer(a arch.Arch) func(*packet.Packet, sim.Time) {
	w := a.World()
	return func(p *packet.Packet, at sim.Time) {
		if p.UDP == nil || p.IP == nil {
			return
		}
		resp := packet.NewUDP(w.PeerMAC, w.HostMAC, p.IP.Dst, p.IP.Src,
			p.UDP.DstPort, p.UDP.SrcPort, p.PayloadLen)
		w.Eng.After(sim.Duration(w.Model.WireLatency), func() {
			a.DeliverWire(resp)
		})
	}
}

// SinkPeer returns a wire peer that counts what it receives and drops it.
type SinkPeer struct {
	Packets uint64
	Bytes   uint64
	First   sim.Time
	Last    sim.Time
	// PerUID tallies bytes by the sending user as *claimed on the wire*
	// is impossible — the sink keys on destination port instead, which is
	// how an external observer distinguishes traffic classes.
	PerDstPort map[uint16]uint64
}

// NewSinkPeer constructs a counting sink.
func NewSinkPeer() *SinkPeer {
	return &SinkPeer{PerDstPort: map[uint16]uint64{}}
}

// Recv is the wire-peer callback.
func (s *SinkPeer) Recv(p *packet.Packet, at sim.Time) {
	if s.Packets == 0 {
		s.First = at
	}
	s.Packets++
	n := uint64(p.FrameLen())
	s.Bytes += n
	s.Last = at
	if p.UDP != nil {
		s.PerDstPort[p.UDP.DstPort] += n
	}
	if p.TCP != nil {
		s.PerDstPort[p.TCP.DstPort] += n
	}
}

// Gbps returns achieved wire throughput at the sink.
func (s *SinkPeer) Gbps() float64 {
	if s.Packets < 2 {
		return 0
	}
	return stats.Throughput(s.Bytes, s.Last.Sub(s.First))
}

// InboundGen injects traffic from the peer toward host flows, round-robin,
// at a configured aggregate rate — the RX-side load generator E3 uses.
type InboundGen struct {
	Arch     arch.Arch
	Flows    []packet.FlowKey // local->remote keys; packets arrive reversed
	Payload  int
	Interval sim.Duration // aggregate inter-packet gap
	Until    sim.Time

	Sent uint64
	next int
}

// Start schedules the generator.
func (g *InboundGen) Start(at sim.Time) {
	g.Arch.World().Eng.At(at, g.tick)
}

func (g *InboundGen) tick() {
	w := g.Arch.World()
	now := w.Eng.Now()
	if g.Until > 0 && !now.Before(g.Until) {
		return
	}
	flow := g.Flows[g.next%len(g.Flows)]
	g.next++
	g.Sent++
	g.Arch.DeliverWire(w.UDPFrom(flow, g.Payload))
	w.Eng.After(g.Interval, g.tick)
}
