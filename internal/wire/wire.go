// Package wire models the network beyond the host's port: a set of remote
// endpoints behind the link, each with its own address and behavior. The
// host under test has exactly one 100G port (as in the paper's server); the
// Network demultiplexes its egress frames to endpoints by destination
// address and lets endpoints inject traffic back.
//
// Endpoints are abstract — they carry no cost model, because everything the
// reproduction measures happens on the host side of the wire.
package wire

import (
	"fmt"

	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/sim"
)

// Handler consumes a frame addressed to an endpoint. Responses go back
// through Endpoint.Send. It borrows the frame for the call, as the world's
// Peer does: a response is a new frame, never the one received.
type Handler func(ep *Endpoint, p *packet.Packet, at sim.Time)

// Endpoint is one remote host on the network.
type Endpoint struct {
	net *Network

	IP      packet.IPv4
	MAC     packet.MAC
	Handler Handler

	Received uint64
	Sent     uint64
}

// Send injects a frame from this endpoint toward the host under test,
// after one wire propagation delay (the link is symmetric).
func (ep *Endpoint) Send(p *packet.Packet) {
	ep.Sent++
	w := ep.net.a.World()
	w.Eng.After(sim.Duration(w.Model.WireLatency), func() {
		ep.net.a.DeliverWire(p)
	})
}

// SendUDP builds and injects a UDP datagram from this endpoint to the
// host's (hostPort) with the given source port.
func (ep *Endpoint) SendUDP(srcPort, hostPort uint16, payload int) {
	w := ep.net.a.World()
	ep.Send(packet.NewUDP(ep.MAC, w.HostMAC, ep.IP, w.HostIP, srcPort, hostPort, payload))
}

// Network is the far side of the host's link.
type Network struct {
	a    arch.Arch
	byIP map[packet.IPv4]*Endpoint

	// Unrouted counts egress frames addressed to no endpoint (they vanish
	// into the fabric, as on a real network).
	Unrouted uint64
	// Broadcasts counts broadcast frames (delivered to every endpoint).
	Broadcasts uint64
}

// NewNetwork installs itself as the architecture's wire peer and returns
// the empty network.
func NewNetwork(a arch.Arch) *Network {
	n := &Network{a: a, byIP: map[packet.IPv4]*Endpoint{}}
	a.World().Peer = n.recv
	return n
}

// AddEndpoint attaches a remote host. The handler may be nil (sink).
func (n *Network) AddEndpoint(ip packet.IPv4, mac packet.MAC, h Handler) *Endpoint {
	ep := &Endpoint{net: n, IP: ip, MAC: mac, Handler: h}
	n.byIP[ip] = ep
	return ep
}

// recv is the host's egress arriving on the fabric.
func (n *Network) recv(p *packet.Packet, at sim.Time) {
	// Broadcast (ARP who-has): every endpoint sees it; endpoints whose IP
	// is the ARP target answer with a reply, as real hosts do.
	if p.Eth.Dst.IsBroadcast() {
		n.Broadcasts++
		if p.ARP != nil && p.ARP.Op == packet.ARPRequest {
			if ep, ok := n.byIP[p.ARP.TargetIP]; ok {
				ep.Received++
				ep.Send(packet.NewARPReply(ep.MAC, ep.IP, p.ARP.SenderHW, p.ARP.SenderIP))
				return
			}
		}
		for _, ep := range n.byIP {
			ep.Received++
			if ep.Handler != nil {
				ep.Handler(ep, p, at)
			}
		}
		return
	}

	dst := destinationIP(p)
	ep, ok := n.byIP[dst]
	if !ok {
		n.Unrouted++
		return
	}
	ep.Received++
	// Endpoints answer ICMP echo to their address natively, like any host.
	if p.IsEchoRequestTo(ep.IP) {
		ep.Send(packet.EchoReplyTo(p))
		return
	}
	if ep.Handler != nil {
		ep.Handler(ep, p, at)
	}
}

func destinationIP(p *packet.Packet) packet.IPv4 {
	switch {
	case p.IP != nil:
		return p.IP.Dst
	case p.ARP != nil:
		return p.ARP.TargetIP
	default:
		return 0
	}
}

// EchoUDP is a Handler echoing UDP datagrams back to their sender.
func EchoUDP(ep *Endpoint, p *packet.Packet, _ sim.Time) {
	if p.UDP == nil || p.IP == nil {
		return
	}
	ep.Send(packet.NewUDP(ep.MAC, p.Eth.Src, p.IP.Dst, p.IP.Src,
		p.UDP.DstPort, p.UDP.SrcPort, p.PayloadLen))
}

// ClientFleet provisions count endpoints with consecutive addresses
// (base+1 ... base+count in the last two octets) and the given handler,
// returning them in order.
func (n *Network) ClientFleet(count int, handler Handler) ([]*Endpoint, error) {
	if count <= 0 || count > 60000 {
		return nil, fmt.Errorf("wire: fleet size %d out of range", count)
	}
	eps := make([]*Endpoint, 0, count)
	for i := 1; i <= count; i++ {
		ip := packet.MakeIP(10, 1, byte(i>>8), byte(i))
		mac := packet.MAC{0x02, 0x10, 0x00, 0x00, byte(i >> 8), byte(i)}
		eps = append(eps, n.AddEndpoint(ip, mac, handler))
	}
	return eps, nil
}
