package nic

import (
	"fmt"
	"sort"

	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// ConfigSnapshot is the whole-config analogue of the per-pipeline lastGood
// program: everything the control plane has programmed into the NIC, frozen
// at one instant. It is what survives a control-plane crash — the NIC keeps
// executing it — and what the crash reconciler restores from when live NIC
// state has diverged from journaled intent.
type ConfigSnapshot struct {
	Ingress     *overlay.Program
	Egress      *overlay.Program
	Scheduler   qos.Qdisc
	Classifier  func(*packet.Packet) uint32
	Steering    map[packet.FlowKey]uint64
	DefaultConn uint64
	TakenAt     sim.Time
}

// snapshotConfig captures the NIC's current control-plane-visible
// configuration. The steering table is copied; programs, scheduler and
// classifier are shared references (they are immutable or owned by the
// control plane).
func (n *NIC) snapshotConfig(now sim.Time) *ConfigSnapshot {
	return &ConfigSnapshot{
		Scheduler:   n.sched,
		Classifier:  n.classifier,
		Steering:    n.steeringEntries(),
		DefaultConn: n.defaultConn,
		TakenAt:     now,
		Ingress:     n.program(Ingress),
		Egress:      n.program(Egress),
	}
}

// CommitConfig marks the current configuration known-good. The control
// plane calls it after each successful mutation, so the snapshot always
// reflects the last state that was demonstrably installed and running.
func (n *NIC) CommitConfig(now sim.Time) { n.lastGoodCfg = n.snapshotConfig(now) }

// LastGoodConfig returns the most recent committed snapshot, nil if the
// control plane never committed one.
func (n *NIC) LastGoodConfig() *ConfigSnapshot { return n.lastGoodCfg }

// RestoreConfig reprograms the NIC from a snapshot: both pipeline programs
// (loaded or unloaded to match), scheduler, classifier, default conn, and
// every steering entry whose connection still exists. It returns the summed
// virtual program-load time. Steering entries for vanished connections are
// skipped with an error naming them — the reconciler decides whether that
// is expected (closed conn) or a divergence.
func (n *NIC) RestoreConfig(s *ConfigSnapshot) (sim.Duration, error) {
	var total sim.Duration
	var firstErr error
	progs := [2]*overlay.Program{s.Ingress, s.Egress}
	for dir := Ingress; dir <= Egress; dir++ {
		p := progs[dir]
		if p == nil {
			n.UnloadProgram(dir)
			continue
		}
		_, load, err := n.LoadProgram(dir, p)
		total += load
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("nic: restore %v program: %w", dir, err)
		}
	}
	n.SetScheduler(s.Scheduler)
	n.classifier = s.Classifier
	n.defaultConn = s.DefaultConn

	// Deterministic order: map iteration must not decide which steering
	// entry wins SRAM on a tight budget.
	keys := make([]packet.FlowKey, 0, len(s.Steering))
	for k := range s.Steering {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return flowLess(keys[i], keys[j]) })
	for _, k := range keys {
		id := s.Steering[k]
		if _, ok := n.conns[id]; !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("nic: restore steering: conn %d gone", id)
			}
			continue
		}
		if err := n.SteerFlow(k, id); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("nic: restore steering: %w", err)
		}
	}
	return total, firstErr
}

// flowLess orders flow keys lexicographically: the one order every
// deterministic walk of a flow-keyed map uses (restores, exports, snapshots).
func flowLess(a, b packet.FlowKey) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}
