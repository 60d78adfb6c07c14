package filter

import (
	"fmt"

	"norman/internal/packet"
)

// Result of evaluating a packet against a chain.
type Result struct {
	Action         Action // terminal action (or chain policy)
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
		return ErrNeedsProcessView
	}
	e.chains[h].Rules = append(e.chains[h].Rules, r)
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

// Evaluate runs the packet through a hook's chain, applying non-terminal
// actions (count/log/mark) along the way, and returns the terminal result.
func (e *Engine) Evaluate(h Hook, p *packet.Packet) Result {
	c := e.chains[h]
	evaluated := 0
	for _, r := range c.Rules {
		evaluated++
		if !r.Matches(p) {
			continue
		}
		r.Packets++
		switch r.Action {
		case ActCount, ActLog:
			continue
		case ActMark:
			p.Meta.Mark = r.MarkVal
			continue
		default:
			return Result{Action: r.Action, RulesEvaluated: evaluated}
		}
	}
	return Result{Action: c.Policy, RulesEvaluated: evaluated}
}
