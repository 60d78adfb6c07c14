// Package filter is the reproduction's net/netfilter equivalent: chains of
// match/action rules including the owner matches (uid-owner, cmd-owner) that
// the paper's port-partitioning scenario (§2) depends on, a connection
// tracker, and two classifier implementations (linear scan and a compiled
// exact-match fast path) for the E8 ablation.
//
// Owner matches are only meaningful where packets carry *trusted* process
// metadata — stamped by the kernel connection table or the KOPI NIC. An
// engine constructed without a process view refuses to install owner rules,
// which is precisely the §2 argument about hypervisor- and network-level
// interposition.
package filter

import (
	"errors"
	"fmt"
	"strings"

	"norman/internal/packet"
)

// Hook names the interposition point a chain applies to.
type Hook uint8

// Hooks.
const (
	HookInput  Hook = iota // traffic arriving from the wire toward local apps
	HookOutput             // traffic generated by local apps toward the wire
)

func (h Hook) String() string {
	if h == HookInput {
		return "INPUT"
	}
	return "OUTPUT"
}

// Action is what a matching rule does.
type Action uint8

// Actions.
const (
	ActAccept Action = iota
	ActDrop
	ActReject // drop and (for TCP) emit RST — modeled as drop with flag
	ActCount  // count and continue evaluation
	ActLog    // log and continue evaluation
	ActMark   // set firewall mark and continue evaluation
)

func (a Action) String() string {
	switch a {
	case ActAccept:
		return "ACCEPT"
	case ActDrop:
		return "DROP"
	case ActReject:
		return "REJECT"
	case ActCount:
		return "COUNT"
	case ActLog:
		return "LOG"
	case ActMark:
		return "MARK"
	}
	return "?"
}

// Terminal reports whether the action ends chain evaluation.
func (a Action) Terminal() bool { return a == ActAccept || a == ActDrop || a == ActReject }

// Prefix is an IPv4 network in CIDR form.
type Prefix struct {
	Net  packet.IPv4
	Bits int
}

// Contains reports whether ip is inside the prefix.
func (p Prefix) Contains(ip packet.IPv4) bool { return ip.InPrefix(p.Net, p.Bits) }

func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Net, p.Bits) }

// PortRange is an inclusive transport port interval.
type PortRange struct {
	Lo, Hi uint16
}

// Contains reports whether port falls in the range.
func (r PortRange) Contains(port uint16) bool { return port >= r.Lo && port <= r.Hi }

func (r PortRange) String() string {
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d:%d", r.Lo, r.Hi)
}

// Rule is one match/action entry. Nil matcher fields are wildcards.
type Rule struct {
	Name string // optional diagnostic name

	Proto    *uint8     // IP protocol
	SrcNet   *Prefix    // source prefix
	DstNet   *Prefix    // destination prefix
	SrcPorts *PortRange // source port range
	DstPorts *PortRange // destination port range
	EthType  *uint16    // EtherType (matches ARP etc.)

	// Owner matches (iptables -m owner). These require a process view.
	OwnerUID *uint32 // --uid-owner
	OwnerCmd string  // --cmd-owner, empty = wildcard

	// State matches (iptables -m state). Meaningful only on an engine with
	// conntrack enabled; on others the rule never matches.
	State *ConnState

	Action  Action
	MarkVal uint32 // for ActMark

	// Statistics.
	Packets uint64
	Bytes   uint64
}

// NeedsOwner reports whether the rule requires trusted process metadata.
func (r *Rule) NeedsOwner() bool { return r.OwnerUID != nil || r.OwnerCmd != "" }

// Matches reports whether the rule matches the packet, ignoring any State
// matcher (no conntrack context). Owner matches fail (never match) when the
// packet's metadata is untrusted: an interposition layer without a process
// view must not enforce on attacker-controlled claims.
func (r *Rule) Matches(p *packet.Packet) bool {
	return r.matches(p, StateNew, false)
}

// matches is the full matcher; state/tracked come from conntrack.
func (r *Rule) matches(p *packet.Packet, state ConnState, tracked bool) bool {
	if r.State != nil && (!tracked || *r.State != state) {
		return false
	}
	if r.EthType != nil && p.Eth.Type != *r.EthType {
		return false
	}
	if r.Proto != nil {
		if p.IP == nil || p.IP.Proto != *r.Proto {
			return false
		}
	}
	if r.SrcNet != nil {
		if p.IP == nil || !r.SrcNet.Contains(p.IP.Src) {
			return false
		}
	}
	if r.DstNet != nil {
		if p.IP == nil || !r.DstNet.Contains(p.IP.Dst) {
			return false
		}
	}
	if r.SrcPorts != nil || r.DstPorts != nil {
		sp, dp, ok := ports(p)
		if !ok {
			return false
		}
		if r.SrcPorts != nil && !r.SrcPorts.Contains(sp) {
			return false
		}
		if r.DstPorts != nil && !r.DstPorts.Contains(dp) {
			return false
		}
	}
	if r.OwnerUID != nil {
		if !p.Meta.TrustedMeta || p.Meta.UID != *r.OwnerUID {
			return false
		}
	}
	if r.OwnerCmd != "" {
		if !p.Meta.TrustedMeta || p.Meta.Command != r.OwnerCmd {
			return false
		}
	}
	return true
}

func ports(p *packet.Packet) (src, dst uint16, ok bool) {
	switch {
	case p.UDP != nil:
		return p.UDP.SrcPort, p.UDP.DstPort, true
	case p.TCP != nil:
		return p.TCP.SrcPort, p.TCP.DstPort, true
	}
	return 0, 0, false
}

func (r *Rule) String() string {
	var parts []string
	if r.Proto != nil {
		parts = append(parts, fmt.Sprintf("-p %d", *r.Proto))
	}
	if r.SrcNet != nil {
		parts = append(parts, "-s "+r.SrcNet.String())
	}
	if r.DstNet != nil {
		parts = append(parts, "-d "+r.DstNet.String())
	}
	if r.SrcPorts != nil {
		parts = append(parts, "--sport "+r.SrcPorts.String())
	}
	if r.DstPorts != nil {
		parts = append(parts, "--dport "+r.DstPorts.String())
	}
	if r.OwnerUID != nil {
		parts = append(parts, fmt.Sprintf("--uid-owner %d", *r.OwnerUID))
	}
	if r.OwnerCmd != "" {
		parts = append(parts, "--cmd-owner "+r.OwnerCmd)
	}
	if r.State != nil {
		parts = append(parts, "-m state --state "+r.State.String())
	}
	parts = append(parts, "-j "+r.Action.String())
	return strings.Join(parts, " ")
}

// Helper constructors for pointer-typed matchers.

// ProtoTCP and friends return pointers for Rule matcher fields.
func Proto(p uint8) *uint8                 { return &p }
func UID(u uint32) *uint32                 { return &u }
func Net(ip packet.IPv4, bits int) *Prefix { return &Prefix{Net: ip, Bits: bits} }
func Port(p uint16) *PortRange             { return &PortRange{Lo: p, Hi: p} }
func Ports(lo, hi uint16) *PortRange       { return &PortRange{Lo: lo, Hi: hi} }
func Ether(t uint16) *uint16               { return &t }

// ErrNeedsProcessView is returned when an owner rule is installed into an
// engine that has no process view.
var ErrNeedsProcessView = errors.New("filter: owner match requires an interposition point with a process view")
