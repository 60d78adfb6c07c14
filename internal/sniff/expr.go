// Package sniff is the reproduction's tcpdump: a capture tap that an
// interposition layer feeds with mirrored packets, a pcap-format writer so
// captures are consumable by standard tools, and a filter expression
// language covering the tcpdump subset the paper's debugging scenario needs
// plus Norman's process-view extensions (uid/pid/cmd matching — expressible
// only where the interposition layer is OS-integrated).
package sniff

import (
	"fmt"
	"strconv"
	"strings"

	"norman/internal/packet"
)

// Expr is a compiled capture filter.
type Expr struct {
	root         node
	src          string
	usesProcView bool
}

// Match reports whether the expression selects the packet.
func (e *Expr) Match(p *packet.Packet) bool {
	if e == nil || e.root == nil {
		return true
	}
	return e.root.match(p)
}

// String returns the original expression source.
func (e *Expr) String() string { return e.src }

// RequiresProcessView reports whether the expression uses uid/pid/cmd
// primitives, which only an OS-integrated interposition layer can evaluate.
func (e *Expr) RequiresProcessView() bool { return e.usesProcView }

type node interface {
	match(p *packet.Packet) bool
}

type andNode struct{ l, r node }
type orNode struct{ l, r node }
type notNode struct{ n node }
type predNode struct {
	fn func(p *packet.Packet) bool
}

func (n andNode) match(p *packet.Packet) bool  { return n.l.match(p) && n.r.match(p) }
func (n orNode) match(p *packet.Packet) bool   { return n.l.match(p) || n.r.match(p) }
func (n notNode) match(p *packet.Packet) bool  { return !n.n.match(p) }
func (n predNode) match(p *packet.Packet) bool { return n.fn(p) }

// Parse compiles a tcpdump-style expression. The empty string matches
// everything. Supported primitives:
//
//	[src|dst] host <ip>        [src|dst] net <ip>/<bits>
//	[src|dst] port <n>         portrange <lo>-<hi>
//	tcp | udp | arp | ip | icmp
//	greater <bytes> | less <bytes>
//	uid <n> | pid <n> | cmd <name>       (Norman process-view extensions)
//
// combined with and/or/not and parentheses; and binds tighter than or.
func Parse(src string) (*Expr, error) {
	toks := tokenize(src)
	if len(toks) == 0 {
		return &Expr{src: src}, nil
	}
	p := &parser{toks: toks}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("sniff: trailing tokens at %q", strings.Join(p.toks[p.pos:], " "))
	}
	return &Expr{root: root, src: src, usesProcView: p.usesProcView}, nil
}

func tokenize(src string) []string {
	src = strings.ReplaceAll(src, "(", " ( ")
	src = strings.ReplaceAll(src, ")", " ) ")
	return strings.Fields(src)
}

type parser struct {
	toks         []string
	pos          int
	usesProcView bool
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	if t != "" {
		p.pos++
	}
	return t
}

func (p *parser) parseOr() (node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "or" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = orNode{l, r}
	}
	return l, nil
}

func (p *parser) parseAnd() (node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek() == "and" {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = andNode{l, r}
	}
	return l, nil
}

func (p *parser) parseNot() (node, error) {
	if p.peek() == "not" {
		p.next()
		n, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return notNode{n}, nil
	}
	return p.parsePrimitive()
}

func (p *parser) parsePrimitive() (node, error) {
	tok := p.next()
	switch tok {
	case "":
		return nil, fmt.Errorf("sniff: unexpected end of expression")
	case "(":
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("sniff: missing )")
		}
		return n, nil
	case "tcp":
		return protoPred(packet.ProtoTCP), nil
	case "udp":
		return protoPred(packet.ProtoUDP), nil
	case "icmp":
		return protoPred(packet.ProtoICMP), nil
	case "ip":
		return predNode{func(p *packet.Packet) bool { return p.IP != nil }}, nil
	case "arp":
		return predNode{func(p *packet.Packet) bool { return p.ARP != nil }}, nil
	case "src", "dst":
		dir := tok
		kind := p.next()
		switch kind {
		case "host":
			return p.hostPred(dir)
		case "net":
			return p.netPred(dir)
		case "port":
			return p.portPred(dir)
		default:
			return nil, fmt.Errorf("sniff: %s must be followed by host/net/port, got %q", dir, kind)
		}
	case "host":
		return p.hostPred("")
	case "net":
		return p.netPred("")
	case "port":
		return p.portPred("")
	case "portrange":
		arg := p.next()
		lo, hi, ok := strings.Cut(arg, "-")
		if !ok {
			return nil, fmt.Errorf("sniff: portrange wants lo-hi, got %q", arg)
		}
		l, err1 := strconv.ParseUint(lo, 10, 16)
		h, err2 := strconv.ParseUint(hi, 10, 16)
		if err1 != nil || err2 != nil || l > h {
			return nil, fmt.Errorf("sniff: bad portrange %q", arg)
		}
		return predNode{func(p *packet.Packet) bool {
			sp, dp, ok := pktPorts(p)
			return ok && ((uint64(sp) >= l && uint64(sp) <= h) || (uint64(dp) >= l && uint64(dp) <= h))
		}}, nil
	case "greater", "less":
		n, err := strconv.Atoi(p.next())
		if err != nil {
			return nil, fmt.Errorf("sniff: %s wants a byte count", tok)
		}
		if tok == "greater" {
			return predNode{func(p *packet.Packet) bool { return p.FrameLen() >= n }}, nil
		}
		return predNode{func(p *packet.Packet) bool { return p.FrameLen() <= n }}, nil
	case "uid", "pid":
		p.usesProcView = true
		n, err := strconv.ParseUint(p.next(), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("sniff: %s wants a number", tok)
		}
		v := uint32(n)
		if tok == "uid" {
			return predNode{func(p *packet.Packet) bool { return p.Meta.TrustedMeta && p.Meta.UID == v }}, nil
		}
		return predNode{func(p *packet.Packet) bool { return p.Meta.TrustedMeta && p.Meta.PID == v }}, nil
	case "cmd":
		p.usesProcView = true
		name := p.next()
		if name == "" {
			return nil, fmt.Errorf("sniff: cmd wants a command name")
		}
		return predNode{func(p *packet.Packet) bool { return p.Meta.TrustedMeta && p.Meta.Command == name }}, nil
	default:
		return nil, fmt.Errorf("sniff: unknown primitive %q", tok)
	}
}

func (p *parser) hostPred(dir string) (node, error) {
	ip, err := parseIP(p.next())
	if err != nil {
		return nil, err
	}
	return predNode{func(pkt *packet.Packet) bool {
		src, dst, ok := addrs(pkt)
		if !ok {
			return false
		}
		switch dir {
		case "src":
			return src == ip
		case "dst":
			return dst == ip
		default:
			return src == ip || dst == ip
		}
	}}, nil
}

func (p *parser) netPred(dir string) (node, error) {
	arg := p.next()
	ipStr, bitsStr, ok := strings.Cut(arg, "/")
	if !ok {
		return nil, fmt.Errorf("sniff: net wants ip/bits, got %q", arg)
	}
	ip, err := parseIP(ipStr)
	if err != nil {
		return nil, err
	}
	bits, err := strconv.Atoi(bitsStr)
	if err != nil || bits < 0 || bits > 32 {
		return nil, fmt.Errorf("sniff: bad prefix length %q", bitsStr)
	}
	return predNode{func(pkt *packet.Packet) bool {
		src, dst, ok := addrs(pkt)
		if !ok {
			return false
		}
		switch dir {
		case "src":
			return src.InPrefix(ip, bits)
		case "dst":
			return dst.InPrefix(ip, bits)
		default:
			return src.InPrefix(ip, bits) || dst.InPrefix(ip, bits)
		}
	}}, nil
}

func (p *parser) portPred(dir string) (node, error) {
	n, err := strconv.ParseUint(p.next(), 10, 16)
	if err != nil {
		return nil, fmt.Errorf("sniff: port wants a number")
	}
	want := uint16(n)
	return predNode{func(pkt *packet.Packet) bool {
		sp, dp, ok := pktPorts(pkt)
		if !ok {
			return false
		}
		switch dir {
		case "src":
			return sp == want
		case "dst":
			return dp == want
		default:
			return sp == want || dp == want
		}
	}}, nil
}

func protoPred(proto uint8) node {
	return predNode{func(p *packet.Packet) bool { return p.IP != nil && p.IP.Proto == proto }}
}

func addrs(p *packet.Packet) (src, dst packet.IPv4, ok bool) {
	if p.IP != nil {
		return p.IP.Src, p.IP.Dst, true
	}
	if p.ARP != nil {
		return p.ARP.SenderIP, p.ARP.TargetIP, true
	}
	return 0, 0, false
}

func pktPorts(p *packet.Packet) (sp, dp uint16, ok bool) {
	switch {
	case p.UDP != nil:
		return p.UDP.SrcPort, p.UDP.DstPort, true
	case p.TCP != nil:
		return p.TCP.SrcPort, p.TCP.DstPort, true
	}
	return 0, 0, false
}

func parseIP(s string) (packet.IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("sniff: bad IPv4 address %q", s)
	}
	var octets [4]byte
	for i, part := range parts {
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("sniff: bad IPv4 address %q", s)
		}
		octets[i] = byte(v)
	}
	return packet.MakeIP(octets[0], octets[1], octets[2], octets[3]), nil
}
