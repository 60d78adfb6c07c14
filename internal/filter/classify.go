package filter

import (
	"norman/internal/packet"
)

// Two lookup structures behind a chain. The linear classifier is the
// reference semantics (first match wins, in order); the compiled classifier
// is an exact-match fast path for the common case where most rules pin
// protocol and destination port, falling back to the linear scan for
// everything else. E8's ablation compares the two as rule counts grow — the
// shape matters because on-NIC match-action tables are exact-match
// hardware, and the compiled path models what the KOPI overlay actually
// executes. Each Classify returns the first matching terminal rule (or nil
// for policy) and the number of rules effectively examined.

// LinearClassifier scans rules in order.
type LinearClassifier struct {
	Rules []*Rule
}

// Classify scans rules first-match-wins, skipping non-terminal actions.
func (c *LinearClassifier) Classify(p *packet.Packet) (*Rule, int) {
	for i, r := range c.Rules {
		if r.Action.Terminal() && r.Matches(p) {
			return r, i + 1
		}
	}
	return nil, len(c.Rules)
}

// exactKey is the compiled fast-path key: protocol plus destination port.
type exactKey struct {
	proto uint8
	dport uint16
}

// CompiledClassifier partitions terminal rules into an exact-match table
// keyed by (proto, dstport) — for rules that pin both and use no ranges or
// prefixes — and a residue evaluated linearly. Rule priority is preserved:
// a fast-path hit is only used when no earlier residue rule matches.
type CompiledClassifier struct {
	table   map[exactKey][]indexedRule
	residue []indexedRule
	total   int
}

type indexedRule struct {
	idx int
	r   *Rule
}

// NewCompiledClassifier builds the structure from an ordered rule list.
func NewCompiledClassifier(rules []*Rule) *CompiledClassifier {
	c := &CompiledClassifier{table: make(map[exactKey][]indexedRule), total: len(rules)}
	for i, r := range rules {
		if !r.Action.Terminal() {
			continue
		}
		if fastPathable(r) {
			k := exactKey{proto: *r.Proto, dport: r.DstPorts.Lo}
			c.table[k] = append(c.table[k], indexedRule{i, r})
		} else {
			c.residue = append(c.residue, indexedRule{i, r})
		}
	}
	return c
}

// fastPathable reports whether the rule is expressible as one exact-match
// entry: exact proto + single destination port, and the remaining matchers
// exact-checkable (owner fields are fine — they compare exactly).
func fastPathable(r *Rule) bool {
	if r.Proto == nil || r.DstPorts == nil || r.DstPorts.Lo != r.DstPorts.Hi {
		return false
	}
	if r.SrcNet != nil || r.DstNet != nil || r.SrcPorts != nil || r.EthType != nil {
		return false
	}
	return true
}

// Classify consults the exact table and the residue, honoring original rule
// order. The cost returned is the number of rule comparisons performed: a
// table probe costs 1 plus the (usually tiny) bucket scan.
func (c *CompiledClassifier) Classify(p *packet.Packet) (*Rule, int) {
	cost := 0
	var fast *indexedRule
	if p.IP != nil {
		if _, dp, ok := ports(p); ok {
			cost++ // table probe
			if bucket, hit := c.table[exactKey{proto: p.IP.Proto, dport: dp}]; hit {
				for i := range bucket {
					cost++
					if bucket[i].r.Matches(p) {
						fast = &bucket[i]
						break
					}
				}
			}
		}
	}
	for i := range c.residue {
		ir := &c.residue[i]
		if fast != nil && ir.idx > fast.idx {
			break // fast-path rule has priority over later residue rules
		}
		cost++
		if ir.r.Matches(p) {
			return ir.r, cost
		}
	}
	if fast != nil {
		return fast.r, cost
	}
	return nil, cost
}
