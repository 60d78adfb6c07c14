package transport

import (
	"fmt"
	"slices"

	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/telemetry"
)

// Responder is the remote endpoint: it consumes data segments arriving on
// the wire, reassembles in order, and returns cumulative ACKs. An optional
// loss model drops data and/or ACK packets deterministically, which the
// tests use to exercise retransmission and congestion control.
type Responder struct {
	a    arch.Arch
	port uint16 // local (responder-side) port the stream targets

	rcvNxt uint32
	// ooo holds the data received past rcvNxt as disjoint ranges, sorted and
	// merged wherever they touch, so a run of segments behind one hole is one
	// range; nil until the first out-of-order segment.
	ooo []span

	// Loss model. The RNG is a 607-word source, so it is built on the first
	// draw: a responder whose loss probabilities stay 0 never pays for one.
	DataLossProb float64
	AckLossProb  float64
	seed         int64
	rng          *sim.RNG

	// Deliver, when set, carries ACKs back toward the host instead of the
	// default a.DeliverWire — the splice point for return-path fault
	// injection (faults.Injector.WrapRx).
	Deliver func(p *packet.Packet)

	// tracer, when set via SetTracer, closes the lifecycle loop: a traced
	// data segment gets a peer-side rx (or drop) span event.
	tracer *telemetry.Tracer

	Received  uint64 // in-order bytes delivered
	AcksSent  uint64
	DataDrops uint64
	AckDrops  uint64
}

// NewResponder builds the peer endpoint for streams targeting dstPort.
// Install its Recv as (or inside) the world's Peer function.
func NewResponder(a arch.Arch, dstPort uint16, seed int64) *Responder {
	return &Responder{
		a:    a,
		port: dstPort,
		seed: seed,
	}
}

// lost draws from the loss model: true with probability prob.
func (r *Responder) lost(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if r.rng == nil {
		r.rng = sim.NewRNG(r.seed, "transport-responder")
	}
	return r.rng.Float64() < prob
}

// SetTracer attaches a packet-lifecycle tracer for peer-side span events.
func (r *Responder) SetTracer(tr *telemetry.Tracer) { r.tracer = tr }

// trace records a peer-side span event for p when tracing is on.
func (r *Responder) trace(p *packet.Packet, at sim.Time, point, note string) {
	if r.tracer == nil || p.Meta.Trace == 0 {
		return
	}
	r.tracer.Record(p.Meta.Trace, at, "peer", point, note)
}

// Recv is the wire-peer callback: feed it every frame that leaves the host.
func (r *Responder) Recv(p *packet.Packet, at sim.Time) {
	if p.TCP == nil || p.IP == nil || p.TCP.DstPort != r.port {
		return
	}
	if p.TCP.Flags&packet.TCPAck != 0 && p.PayloadLen == 0 {
		return // not a data segment
	}
	if r.lost(r.DataLossProb) {
		r.DataDrops++
		r.trace(p, at, "rx_drop", "peer loss model")
		return
	}
	if r.tracer != nil && p.Meta.Trace != 0 {
		r.trace(p, at, "rx", fmt.Sprintf("seq=%d len=%d", p.TCP.Seq, p.PayloadLen))
	}

	start := p.TCP.Seq
	end := start + uint32(p.PayloadLen)
	if end > start {
		r.note(start, end)
	}

	// Cumulative ACK for everything contiguous so far.
	if r.lost(r.AckLossProb) {
		r.AckDrops++
		return
	}
	ack := r.a.World().Frames.TCP(p.Eth.Dst, p.Eth.Src, p.IP.Dst, p.IP.Src,
		p.TCP.DstPort, p.TCP.SrcPort, packet.TCPAck, 0)
	ack.TCP.Ack = r.rcvNxt
	r.AcksSent++
	if r.Deliver != nil {
		r.Deliver(ack)
		return
	}
	r.a.DeliverWire(ack)
}

// span is one out-of-order range of sequence space, end exclusive.
type span struct{ start, end uint32 }

// note records a received range and advances rcvNxt over any now-contiguous
// out-of-order data.
func (r *Responder) note(start, end uint32) {
	if end <= r.rcvNxt {
		return // duplicate of already-delivered data
	}
	if start > r.rcvNxt {
		// Out of order: merge the range with every buffered one it touches.
		if r.ooo == nil {
			r.ooo = make([]span, 0, 4)
		}
		i := 0
		for i < len(r.ooo) && r.ooo[i].end < start {
			i++
		}
		j := i
		for ; j < len(r.ooo) && r.ooo[j].start <= end; j++ {
			start, end = min(start, r.ooo[j].start), max(end, r.ooo[j].end)
		}
		r.ooo = slices.Replace(r.ooo, i, j, span{start, end})
		return
	}
	// In order (possibly overlapping): deliver, then pull the buffered
	// ranges that are now contiguous, lowest first.
	r.advance(end)
	n := 0
	for ; n < len(r.ooo) && r.ooo[n].start <= r.rcvNxt; n++ {
		if e := r.ooo[n].end; e > r.rcvNxt {
			r.advance(e)
		}
	}
	r.ooo = slices.Delete(r.ooo, 0, n)
}

func (r *Responder) advance(to uint32) {
	r.Received += uint64(to - r.rcvNxt)
	r.rcvNxt = to
}
