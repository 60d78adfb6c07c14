package recovery

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"norman/internal/filter"
	"norman/internal/packet"
)

// Rule is a firewall rule in administrator-facing form (norman.Rule names
// this type). Zero fields are wildcards. Owner fields require an
// architecture with a process view.
type Rule struct {
	Proto    string  `json:"proto,omitempty"` // "udp", "tcp", "" = any
	SrcNet   string  `json:"src,omitempty"`   // "10.0.0.0/8", "" = any
	DstNet   string  `json:"dst,omitempty"`
	SrcPort  uint16  `json:"sport,omitempty"` // 0 = any
	DstPort  uint16  `json:"dport,omitempty"`
	OwnerUID *uint32 `json:"uid_owner,omitempty"`
	OwnerCmd string  `json:"cmd_owner,omitempty"`
	Action   string  `json:"action,omitempty"` // "accept" (the default), "drop", "count", "log", "mark"
	Mark     uint32  `json:"mark,omitempty"`
}

// RuleRecord is the journal form of one firewall rule: the rule and its
// hook, encoded as one flat object.
type RuleRecord struct {
	Hook string `json:"hook"` // INPUT / OUTPUT
	Rule
}

// protos and actions declare each proto and action word once, for both
// directions: Compile lowers a word to the filter engine's value and RuleOf
// reads the value back as that word.
var (
	protos  = [...]string{packet.ProtoTCP: "tcp", packet.ProtoUDP: "udp"}
	actions = [...]string{filter.ActAccept: "accept", filter.ActDrop: "drop", filter.ActCount: "count",
		filter.ActLog: "log", filter.ActMark: "mark"}
)

// Compile lowers the rule to the filter engine's form. An empty Action is
// accept; an unknown proto or action or a malformed CIDR is an error.
func (r Rule) Compile() (*filter.Rule, error) {
	out := &filter.Rule{OwnerUID: r.OwnerUID, OwnerCmd: r.OwnerCmd, MarkVal: r.Mark}
	if r.Proto != "" {
		p := slices.Index(protos[:], r.Proto)
		if p < 0 {
			return nil, fmt.Errorf("recovery: unknown proto %q", r.Proto)
		}
		out.Proto = filter.Proto(uint8(p))
	}
	if r.SrcPort != 0 {
		out.SrcPorts = filter.Port(r.SrcPort)
	}
	if r.DstPort != 0 {
		out.DstPorts = filter.Port(r.DstPort)
	}
	var err error
	if out.SrcNet, err = parseNet(r.SrcNet); err != nil {
		return nil, err
	}
	if out.DstNet, err = parseNet(r.DstNet); err != nil {
		return nil, err
	}
	a := slices.Index(actions[:], cmp.Or(r.Action, "accept"))
	if a < 0 {
		return nil, fmt.Errorf("recovery: unknown action %q", r.Action)
	}
	out.Action = filter.Action(a)
	return out, nil
}

// parseNet reads a dotted CIDR; "" is the wildcard.
func parseNet(s string) (*filter.Prefix, error) {
	if s == "" {
		return nil, nil
	}
	var a, b, c, d byte
	var bits int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d/%d", &a, &b, &c, &d, &bits); err != nil {
		return nil, fmt.Errorf("recovery: bad CIDR %q", s)
	}
	return filter.Net(packet.MakeIP(a, b, c, d), bits), nil
}

// RuleOf reads an installed rule back in the journal's words, the inverse of
// Compile: RuleOf of a compiled rule is the rule in canonical form, its empty
// Action read back as "accept" and its CIDRs in dotted form. A protocol no
// word names reads back as its number, and a port range as its low port (the
// control plane installs single ports).
func RuleOf(fr *filter.Rule) Rule {
	r := Rule{OwnerUID: fr.OwnerUID, OwnerCmd: fr.OwnerCmd, Action: actions[fr.Action], Mark: fr.MarkVal}
	if fr.Proto != nil {
		r.Proto = strconv.Itoa(int(*fr.Proto))
		if p := int(*fr.Proto); p < len(protos) && protos[p] != "" {
			r.Proto = protos[p]
		}
	}
	if fr.SrcNet != nil {
		r.SrcNet = fr.SrcNet.String()
	}
	if fr.DstNet != nil {
		r.DstNet = fr.DstNet.String()
	}
	if fr.SrcPorts != nil {
		r.SrcPort = fr.SrcPorts.Lo
	}
	if fr.DstPorts != nil {
		r.DstPort = fr.DstPorts.Lo
	}
	return r
}

// String renders the record as the `iptables -A` line that installs it.
func (r RuleRecord) String() string {
	parts := []string{"-A", r.Hook}
	add := func(on bool, format string, v any) {
		if on {
			parts = append(parts, fmt.Sprintf(format, v))
		}
	}
	add(r.Proto != "", "-p %s", r.Proto)
	add(r.SrcNet != "", "-s %s", r.SrcNet)
	add(r.DstNet != "", "-d %s", r.DstNet)
	add(r.SrcPort != 0, "--sport %d", r.SrcPort)
	add(r.DstPort != 0, "--dport %d", r.DstPort)
	if r.OwnerUID != nil {
		add(true, "-m owner --uid-owner %d", *r.OwnerUID)
	}
	add(r.OwnerCmd != "", "--cmd-owner %s", r.OwnerCmd)
	add(true, "-j %s", strings.ToUpper(r.Action))
	add(r.Mark != 0, "--set-mark %d", r.Mark)
	return strings.Join(parts, " ")
}
