package filter

import (
	"fmt"

	"norman/internal/packet"
	"norman/internal/sim"
)

// Result of evaluating a packet against a chain.
type Result struct {
	Action         Action // terminal action (or chain policy)
	Rule           *Rule  // matching terminal rule, nil if policy applied
	RulesEvaluated int    // work done, charged by the cost model
}

// Chain is an ordered rule list with a default policy.
type Chain struct {
	Name   string
	Policy Action
	Rules  []*Rule
}

// Engine evaluates packets against per-hook chains. hasProcessView gates
// owner rules: a kernel or KOPI engine has it, a hypervisor-switch or
// network engine does not.
type Engine struct {
	chains         map[Hook]*Chain
	hasProcessView bool
	ct             *Conntrack // optional: enables -m state rules

	logged  uint64
	dropped uint64
	passed  uint64
}

// NewEngine creates an engine with empty ACCEPT-policy chains for both
// hooks. hasProcessView declares whether this interposition point can see
// trusted process metadata.
func NewEngine(hasProcessView bool) *Engine {
	return &Engine{
		chains: map[Hook]*Chain{
			HookInput:  {Name: "INPUT", Policy: ActAccept},
			HookOutput: {Name: "OUTPUT", Policy: ActAccept},
		},
		hasProcessView: hasProcessView,
	}
}

// Chain returns the chain for a hook.
func (e *Engine) Chain(h Hook) *Chain { return e.chains[h] }

// Append adds a rule to the end of a hook's chain. Owner rules are rejected
// without a process view.
func (e *Engine) Append(h Hook, r *Rule) error {
	if r.NeedsOwner() && !e.hasProcessView {
		return fmt.Errorf("%w: %s", ErrNeedsProcessView, r)
	}
	e.chains[h].Rules = append(e.chains[h].Rules, r)
	return nil
}

// Insert adds a rule at position i (0 = first).
func (e *Engine) Insert(h Hook, i int, r *Rule) error {
	if r.NeedsOwner() && !e.hasProcessView {
		return fmt.Errorf("%w: %s", ErrNeedsProcessView, r)
	}
	c := e.chains[h]
	if i < 0 || i > len(c.Rules) {
		return fmt.Errorf("filter: insert index %d out of range [0,%d]", i, len(c.Rules))
	}
	c.Rules = append(c.Rules, nil)
	copy(c.Rules[i+1:], c.Rules[i:])
	c.Rules[i] = r
	return nil
}

// Delete removes the rule at position i.
func (e *Engine) Delete(h Hook, i int) error {
	c := e.chains[h]
	if i < 0 || i >= len(c.Rules) {
		return fmt.Errorf("filter: delete index %d out of range [0,%d)", i, len(c.Rules))
	}
	c.Rules = append(c.Rules[:i], c.Rules[i+1:]...)
	return nil
}

// Flush removes every rule from a hook's chain.
func (e *Engine) Flush(h Hook) { e.chains[h].Rules = nil }

// SetPolicy sets the default action when no terminal rule matches.
func (e *Engine) SetPolicy(h Hook, a Action) error {
	if !a.Terminal() {
		return fmt.Errorf("filter: policy must be terminal, got %s", a)
	}
	e.chains[h].Policy = a
	return nil
}

// EnableConntrack attaches a flow tracker, enabling -m state rules. Every
// evaluated packet updates tracking.
func (e *Engine) EnableConntrack(ct *Conntrack) { e.ct = ct }

// Conntrack returns the attached tracker, or nil.
func (e *Engine) Conntrack() *Conntrack { return e.ct }

// Evaluate runs the packet through a hook's chain at time zero; use
// EvaluateAt when conntrack expiry matters.
func (e *Engine) Evaluate(h Hook, p *packet.Packet) Result {
	return e.EvaluateAt(h, p, 0)
}

// EvaluateAt runs the packet through a hook's chain, applying non-terminal
// actions (count/log/mark) along the way, and returns the terminal result.
// With conntrack enabled, the packet is observed once and -m state rules
// compare against the flow's state as of this packet.
func (e *Engine) EvaluateAt(h Hook, p *packet.Packet, now sim.Time) Result {
	var state ConnState
	var tracked bool
	if e.ct != nil {
		state, tracked = e.ct.Observe(p, now)
	}
	c := e.chains[h]
	evaluated := 0
	for _, r := range c.Rules {
		evaluated++
		if !r.matches(p, state, tracked) {
			continue
		}
		r.Packets++
		r.Bytes += uint64(p.FrameLen())
		switch r.Action {
		case ActCount:
			continue
		case ActLog:
			e.logged++
			continue
		case ActMark:
			p.Meta.Mark = r.MarkVal
			continue
		default:
			e.note(r.Action)
			return Result{Action: r.Action, Rule: r, RulesEvaluated: evaluated}
		}
	}
	e.note(c.Policy)
	return Result{Action: c.Policy, RulesEvaluated: evaluated}
}

func (e *Engine) note(a Action) {
	if a == ActAccept {
		e.passed++
	} else {
		e.dropped++
	}
}

// Counters returns cumulative accept/drop/log totals.
func (e *Engine) Counters() (passed, dropped, logged uint64) {
	return e.passed, e.dropped, e.logged
}

// RuleCount returns the total number of installed rules across hooks.
func (e *Engine) RuleCount() int {
	return len(e.chains[HookInput].Rules) + len(e.chains[HookOutput].Rules)
}
