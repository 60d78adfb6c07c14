package packet

// ICMP message types used by the reproduction.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

// ICMP is an ICMP echo header (the only ICMP the simulation speaks).
type ICMP struct {
	Type uint8
	Code uint8
	ID   uint16
	Seq  uint16
}

// NewICMPEcho builds an ICMP echo request or reply.
func NewICMPEcho(srcMAC, dstMAC MAC, src, dst IPv4, icmpType uint8, id, seq uint16, payloadLen int) *Packet {
	p := new(Packet)
	p.initIPv4(srcMAC, dstMAC, src, dst, ProtoICMP, 8, payloadLen)
	p.ICMP = &ICMP{Type: icmpType, ID: id, Seq: seq}
	return p
}

// EchoReplyTo builds the reply to an echo request, swapping addressing.
func EchoReplyTo(req *Packet) *Packet {
	return NewICMPEcho(req.Eth.Dst, req.Eth.Src, req.IP.Dst, req.IP.Src,
		ICMPEchoReply, req.ICMP.ID, req.ICMP.Seq, req.PayloadLen)
}

// IsEchoRequestTo reports whether p is an ICMP echo request addressed to ip.
func (p *Packet) IsEchoRequestTo(ip IPv4) bool {
	return p.ICMP != nil && p.ICMP.Type == ICMPEchoRequest && p.IP != nil && p.IP.Dst == ip
}
