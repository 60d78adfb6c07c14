package norman

import (
	"fmt"

	"norman/internal/filter"
	"norman/internal/kernel"
	"norman/internal/qos"
	"norman/internal/recovery"
	"norman/internal/sim"
	"norman/internal/sniff"
)

// Rule is a firewall rule in administrator-facing form: the rule payload the
// recovery journal records. Zero fields are wildcards. Owner fields require
// an architecture with a process view.
type Rule = recovery.Rule

// Hook names.
const (
	Input  = "INPUT"
	Output = "OUTPUT"
)

// hooks maps the hook names to the filter hooks; IPTablesAppend refuses every
// other name.
var hooks = map[string]filter.Hook{Input: filter.HookInput, Output: filter.HookOutput}

// UID returns a pointer-typed uid for Rule.OwnerUID.
func UID(u uint32) *uint32 { return &u }

// IPTablesAppend installs a rule at the architecture's interposition point
// (the `iptables -A` of the reproduction) on hook Input or Output; any other
// hook is refused before it is journaled. On architectures without an
// interposition point, or without a process view for owner rules, an error
// explains which §2 scenario just became unenforceable. With recovery enabled
// the intent is journaled write-ahead: a crash after the journal write but
// before the install is repaired by the reconciler, and an install failure is
// compensated with an abort record.
func (s *System) IPTablesAppend(hook string, r Rule) error {
	if err := s.gate(); err != nil {
		return err
	}
	if _, ok := hooks[hook]; !ok {
		return fmt.Errorf("norman: unknown hook %q (want %s or %s)", hook, Input, Output)
	}
	return s.commit(recovery.Entry{Op: recovery.OpRuleAppend, Rule: &recovery.RuleRecord{Hook: hook, Rule: r}}, s.installRule)
}

// installRule compiles and installs an append entry's rule.
func (s *System) installRule(e recovery.Entry) error {
	fr, err := e.Rule.Compile()
	if err != nil {
		return err
	}
	return s.a.InstallRule(hooks[e.Rule.Hook], fr)
}

// IPTablesFlush removes all rules.
func (s *System) IPTablesFlush() error {
	if err := s.gate(); err != nil {
		return err
	}
	return s.commit(recovery.Entry{Op: recovery.OpRuleFlush}, s.flushRules)
}

// flushRules empties every chain.
func (s *System) flushRules(recovery.Entry) error { return s.a.FlushRules() }

// RuleStatus is one installed rule, read back as the journal's record, with
// its hit counter (`iptables -L -v`).
type RuleStatus struct {
	recovery.RuleRecord
	Hits uint64
}

// IPTablesList returns the installed rules as LivePolicy reads them back,
// hook by hook, each with its own hit counter where the architecture tracks
// them.
func (s *System) IPTablesList() []RuleStatus {
	var out []RuleStatus
	perHook := map[string]int{}
	for _, rr := range s.LivePolicy().Rules {
		hits, _ := s.a.RuleHits(hooks[rr.Hook], perHook[rr.Hook])
		perHook[rr.Hook]++
		out = append(out, RuleStatus{RuleRecord: rr, Hits: hits})
	}
	return out
}

// QdiscSpec configures the egress scheduler (`tc qdisc add`): the qdisc
// payload the recovery journal records, qos.Spec. Kind is "wfq" (the
// default), "drr", "prio", "pfifo" or "tbf"; Weights maps class id -> weight
// (wfq) or quantum bytes (drr); RateBps and BurstBytes parameterize tbf;
// ClassOfUID maps uid -> class, and unmapped users get class 0.
type QdiscSpec = recovery.QdiscRecord

// TCSet installs an egress qdisc with a classifier that assigns classes by
// owning user id (the cgroup-style classification of the paper's QoS
// scenario), through spec.ClassOfUID. With recovery enabled the spec is
// journaled as given, its empty Kind resolved to "wfq", so the reconciler can
// rebuild an identical scheduler. With the overload governor enabled —
// before or after this call — the same class weights drive ingress shedding:
// under saturation the NIC drops low-weight classes first.
func (s *System) TCSet(spec QdiscSpec) error {
	if err := s.gate(); err != nil {
		return err
	}
	if spec.Kind == "" {
		spec.Kind = "wfq" // the default; journal the resolved kind
	}
	if err := s.commit(recovery.Entry{Op: recovery.OpQdiscSet, Qdisc: &spec}, s.setQdisc); err != nil {
		return err
	}
	_ = s.resolve() // cannot newly fail here: see resolve
	return nil
}

// TCShow returns the standing qdisc spec (`tc qdisc show`): the one the last
// TCSet folded or the reconciler reinstalled from the journal; false when
// none was set.
func (s *System) TCShow() (QdiscSpec, bool) {
	if s.policy.Qdisc == nil {
		return QdiscSpec{}, false
	}
	return *s.policy.Qdisc, true
}

// setQdisc builds a set entry's scheduler and its uid classifier and
// installs them.
func (s *System) setQdisc(e recovery.Entry) error {
	q, classify, err := qos.Build(*e.Qdisc)
	if err != nil {
		return err
	}
	return s.a.SetQdisc(q, classify)
}

// Capture is a running tcpdump session.
type Capture struct {
	tap *sniff.Tap
}

// Tcpdump attaches a capture with a tcpdump-style filter expression
// (including the Norman uid/pid/cmd extensions where the architecture has a
// process view).
func (s *System) Tcpdump(expr string) (*Capture, error) {
	e, err := sniff.Parse(expr)
	if err != nil {
		return nil, err
	}
	tap, err := s.a.AttachTap(e)
	if err != nil {
		return nil, err
	}
	return &Capture{tap: tap}, nil
}

// Records returns the retained captures.
func (c *Capture) Records() []sniff.Record { return c.tap.Records() }

// Counters returns packets seen and matched by the capture.
func (c *Capture) Counters() (seen, matched uint64) {
	seen, matched, _ = c.tap.Counters()
	return seen, matched
}

// NetstatRow is one line of the netstat view: the flow joined with its
// owning process — the join that off-host interposition cannot produce.
type NetstatRow struct {
	ConnID  uint64
	Flow    string
	PID     uint32
	UID     uint32
	Command string
	Opened  Duration
}

// Netstat lists connections with process attribution from the kernel table.
func (s *System) Netstat() []NetstatRow {
	var out []NetstatRow
	for _, ci := range s.w.Kern.Conns() {
		out = append(out, NetstatRow{
			ConnID:  ci.ID,
			Flow:    ci.Flow.String(),
			PID:     ci.PID,
			UID:     ci.UID,
			Command: ci.Command,
			Opened:  sim.Duration(ci.Opened),
		})
	}
	return out
}

// ARPEntry is one kernel ARP cache line.
type ARPEntry = kernel.ARPEntry

// ARPTable returns the kernel ARP cache — empty under architectures where
// the kernel never sees dataplane ARP (the §2 debugging scenario).
func (s *System) ARPTable() []*ARPEntry { return s.w.Kern.ARP().Entries() }

// ARPTopRequester returns the process that originated the most ARP requests
// visible to the kernel, with its count — how Alice traces the flood.
func (s *System) ARPTopRequester() (pid uint32, count uint64) {
	return s.w.Kern.ARP().TopRequester()
}
