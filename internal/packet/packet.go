// Package packet models network packets for the Norman simulation: typed
// Ethernet/ARP/IPv4/UDP/TCP headers, wire-format serialization and parsing
// (with real checksums, so captures written by the sniffer are valid pcap
// payloads), and the host-side metadata — owning user, process and
// connection — that the paper's interposition arguments revolve around.
package packet

import (
	"fmt"

	"norman/internal/sim"
)

// EtherType values understood by the simulation.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers understood by the simulation.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IPv4 is an IPv4 address in host byte order.
type IPv4 uint32

// MakeIP builds an address from dotted-quad octets.
func MakeIP(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// InPrefix reports whether ip falls inside network/bits.
func (ip IPv4) InPrefix(network IPv4, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits >= 32 {
		return ip == network
	}
	mask := ^IPv4(0) << (32 - bits)
	return ip&mask == network&mask
}

// Eth is an Ethernet II header.
type Eth struct {
	Dst  MAC
	Src  MAC
	Type uint16
}

// ARP is an IPv4-over-Ethernet ARP message.
type ARP struct {
	Op       uint16 // 1 request, 2 reply
	SenderHW MAC
	SenderIP IPv4
	TargetHW MAC
	TargetIP IPv4
}

// ARP opcodes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// IP is an IPv4 header (options unsupported; IHL is always 5).
type IP struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Proto    uint8
	Src      IPv4
	Dst      IPv4
}

// UDP is a UDP header.
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Len     uint16
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// TCP is a TCP header (options unsupported; data offset is always 5).
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
}

// Meta is host-side metadata attached to a packet while it is inside the
// simulated host. It is what an on-host interposition layer can see and an
// off-host one (network, hypervisor switch) cannot: the owning user and
// process, and the connection the packet belongs to.
type Meta struct {
	UID       uint32 // owning user
	PID       uint32 // owning process
	Command   string // process command name (iptables cmd-owner)
	CommandID uint32 // interned command id (what the NIC can match on)
	ConnID    uint64 // owning connection, 0 if none
	Mark      uint32 // firewall mark set by interposition
	Class     uint32 // qdisc class assigned by interposition
	// Tenant is the isolation domain the packet's connection belongs to —
	// the unit the NIC's weighted pipeline/DMA scheduler and the per-tenant
	// DDIO partition account against. Assigned by the kernel at connection
	// setup (kernel.TenantOf, defaulting to the owning UID) and stamped by
	// the NIC from the connection context, like the rest of the trusted
	// metadata. 0 is the unattributed/system tenant.
	Tenant uint32

	Enqueued sim.Time // when the app produced / NIC received the packet
	// Trace is the packet-lifecycle trace ID assigned at the packet's first
	// interposition point when tracing is enabled (telemetry.Tracer), 0
	// otherwise. Clones keep the ID, so a duplicated or mirrored frame shows
	// up inside its origin packet's journey.
	Trace uint64
	// TrustedMeta distinguishes metadata stamped by a privileged layer
	// (kernel connection table, KOPI NIC) from metadata merely claimed by
	// the application. Off-host interposition only ever sees untrusted
	// claims, which is the root of the paper's §2 argument.
	TrustedMeta bool
}

// Packet is a simulated frame: typed headers plus payload length. Payload
// contents are carried only when a test or the sniffer needs real bytes;
// otherwise PayloadLen alone drives the cost model, keeping large sweeps
// allocation-light.
//
// The IP, UDP and TCP headers of a packet built by NewUDP, NewTCP or Clone
// live inside the Packet itself (ip, udp, tcp below) with the exported
// pointers aimed at them, so the per-frame constructors are one allocation.
// The pointers stay the API: a literal may still aim them anywhere. Copying a
// Packet by value leaves the copy's pointers on the origin's storage — use
// Clone. ARP and ICMP keep their own allocation: embedding them too would
// push every UDP/TCP frame out of the 208-byte allocator size class.
type Packet struct {
	Eth  Eth
	ARP  *ARP
	IP   *IP
	UDP  *UDP
	TCP  *TCP
	ICMP *ICMP

	Payload    []byte
	PayloadLen int // authoritative payload size in bytes

	Meta Meta

	ip    IP
	tcp   TCP
	udp   UDP
	state frameState // who frees the frame (frames.go); it sits in the struct's tail padding
}

// FrameLen returns the on-wire frame length in bytes (without FCS).
func (p *Packet) FrameLen() int {
	n := 14 // Ethernet
	switch {
	case p.ARP != nil:
		n += 28
	case p.IP != nil:
		n += 20
		switch {
		case p.UDP != nil:
			n += 8
		case p.TCP != nil:
			n += 20
		case p.ICMP != nil:
			n += 8
		}
		n += p.PayloadLen
	default:
		n += p.PayloadLen
	}
	if n < 60 {
		n = 60 // minimum Ethernet frame
	}
	return n
}

// FlowKey identifies a transport 5-tuple.
type FlowKey struct {
	Src     IPv4
	Dst     IPv4
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Flow extracts the 5-tuple of an IPv4 transport packet. ok is false for
// non-IP or non-TCP/UDP packets.
func (p *Packet) Flow() (k FlowKey, ok bool) {
	if p.IP == nil {
		return k, false
	}
	k.Src, k.Dst, k.Proto = p.IP.Src, p.IP.Dst, p.IP.Proto
	switch {
	case p.UDP != nil:
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	case p.TCP != nil:
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	default:
		return k, false
	}
	return k, true
}

// Clone returns a deep copy of the packet (headers and payload). The copy's
// IP/UDP/TCP headers live in its own embedded storage wherever the origin's
// lived, so the copy is one allocation plus one for ARP, ICMP or carried
// payload bytes. The copy belongs to whoever made it: no free list takes it
// back, even when the origin came from one.
func (p *Packet) Clone() *Packet {
	q := new(Packet)
	*q = *p
	q.state = frameLoose
	if p.ARP != nil {
		a := *p.ARP
		q.ARP = &a
	}
	if p.IP != nil {
		q.ip = *p.IP
		q.IP = &q.ip
	}
	if p.UDP != nil {
		q.udp = *p.UDP
		q.UDP = &q.udp
	}
	if p.TCP != nil {
		q.tcp = *p.TCP
		q.TCP = &q.tcp
	}
	if p.ICMP != nil {
		ic := *p.ICMP
		q.ICMP = &ic
	}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return q
}

// initIPv4 rebuilds p in place as the frame every IPv4 transport constructor
// starts from, its IP header in embedded storage; l4 is the transport header
// length. Every field is overwritten, so a frame off a free list (frames.go)
// comes out exactly as a fresh one would, loose until its list marks it.
func (p *Packet) initIPv4(srcMAC, dstMAC MAC, src, dst IPv4, proto uint8, l4, payloadLen int) {
	*p = Packet{
		Eth:        Eth{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4},
		PayloadLen: payloadLen,
		ip:         IP{TotalLen: uint16(20 + l4 + payloadLen), TTL: 64, Proto: proto, Src: src, Dst: dst},
	}
	p.IP = &p.ip
}

// initUDP rebuilds p in place as a UDP datagram.
func (p *Packet) initUDP(srcMAC, dstMAC MAC, src, dst IPv4, sport, dport uint16, payloadLen int) {
	p.initIPv4(srcMAC, dstMAC, src, dst, ProtoUDP, 8, payloadLen)
	p.udp = UDP{SrcPort: sport, DstPort: dport, Len: uint16(8 + payloadLen)}
	p.UDP = &p.udp
}

// initTCP rebuilds p in place as a TCP segment.
func (p *Packet) initTCP(srcMAC, dstMAC MAC, src, dst IPv4, sport, dport uint16, flags uint8, payloadLen int) {
	p.initIPv4(srcMAC, dstMAC, src, dst, ProtoTCP, 20, payloadLen)
	p.tcp = TCP{SrcPort: sport, DstPort: dport, Flags: flags, Window: 65535}
	p.TCP = &p.tcp
}

// NewUDP builds a UDP datagram with the given addressing and payload size.
func NewUDP(srcMAC, dstMAC MAC, src, dst IPv4, sport, dport uint16, payloadLen int) *Packet {
	p := new(Packet)
	p.initUDP(srcMAC, dstMAC, src, dst, sport, dport, payloadLen)
	return p
}

// NewTCP builds a TCP segment with the given addressing, flags and payload
// size.
func NewTCP(srcMAC, dstMAC MAC, src, dst IPv4, sport, dport uint16, flags uint8, payloadLen int) *Packet {
	p := new(Packet)
	p.initTCP(srcMAC, dstMAC, src, dst, sport, dport, flags, payloadLen)
	return p
}

// NewARPRequest builds a who-has ARP broadcast.
func NewARPRequest(srcMAC MAC, srcIP, targetIP IPv4) *Packet {
	return &Packet{
		Eth: Eth{Dst: BroadcastMAC, Src: srcMAC, Type: EtherTypeARP},
		ARP: &ARP{Op: ARPRequest, SenderHW: srcMAC, SenderIP: srcIP, TargetIP: targetIP},
	}
}

// NewARPReply builds an ARP reply from sender to target.
func NewARPReply(srcMAC MAC, srcIP IPv4, dstMAC MAC, dstIP IPv4) *Packet {
	return &Packet{
		Eth: Eth{Dst: dstMAC, Src: srcMAC, Type: EtherTypeARP},
		ARP: &ARP{Op: ARPReply, SenderHW: srcMAC, SenderIP: srcIP, TargetHW: dstMAC, TargetIP: dstIP},
	}
}
