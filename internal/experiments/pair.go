package experiments

import (
	"fmt"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/kernel"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

// The victim/adversary workload E13–E16 share: a latency-sensitive victim
// tenant with 7/8 of every schedulable resource (it waits for at most about
// one adversary grant per scheduler rotation) next to an adversary with 1/8.
// The victim's 64 flows (64 KiB of descriptor lines, inside one DDIO way)
// carry small frames at 12.5 Gbps, so a flow is re-referenced every ~12 µs;
// what the adversary offers is each experiment's variable.
const (
	pairVictimUID     = 101
	pairAdvUID        = 202
	pairVictimTid     = 1
	pairAdvTid        = 2
	pairVictimW       = 7
	pairAdvW          = 1
	pairRingSize      = 16
	pairVictimConns   = 64
	pairVictimPayload = 256
	pairVictimFrame   = pairVictimPayload + 42
	pairVictimGbps    = 12.5
)

// pairWeights is the 7:1 split as the scheduler, cache and governor take it.
func pairWeights() map[uint32]int {
	return map[uint32]int{pairVictimTid: pairVictimW, pairAdvTid: pairAdvW}
}

// tenantPair is the world those experiments run on: one architecture with a
// sink for a wire peer, the victim, and — once dialAdversary runs — the
// adversary.
type tenantPair struct {
	a       arch.Arch
	w       *arch.World
	vicProc *kernel.Process

	vicFlows, advFlows []packet.FlowKey
	delivered          uint64 // frames that reached an application
}

func newTenantPair(archName string, model timing.Model) *tenantPair {
	a := arch.New(archName, arch.WorldConfig{Model: model, RingSize: pairRingSize})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}
	w.Kern.AddUser(pairVictimUID, "victim")
	w.Kern.AssignTenant(pairVictimUID, pairVictimTid)
	return &tenantPair{a: a, w: w, vicProc: w.Kern.Spawn(pairVictimUID, "victim-svc")}
}

// dial connects n flows for proc and returns every flow with its connection
// (nil where admit — nil admits all — refused it). A refused flow stays in the
// offered set: its frames arrive, find no steering entry, and are counted as
// no-steer drops — a typed rejection's dataplane shadow.
func (tp *tenantPair) dial(proc *kernel.Process, n int, lport, rport uint16, admit func() error) (flows []packet.FlowKey, conns []*arch.Conn, refused uint64) {
	flows, conns = make([]packet.FlowKey, n), make([]*arch.Conn, n)
	for i := range flows {
		flows[i] = tp.w.Flow(lport+uint16(i/512), rport+uint16(i%512))
		if admit != nil && admit() != nil {
			refused++
			continue
		}
		c, err := tp.a.Connect(proc, flows[i])
		if err != nil {
			panic(fmt.Sprintf("experiments: %s connect %d: %v", proc.Command, i, err))
		}
		conns[i] = c
	}
	return flows, conns, refused
}

// dialVictim connects the victim's 64 flows — first: they fit every budget.
func (tp *tenantPair) dialVictim(admit func() error) (conns []*arch.Conn) {
	tp.vicFlows, conns, _ = tp.dial(tp.vicProc, pairVictimConns, 3000, 6000, admit)
	return conns
}

// dialAdversary creates the adversary, connects its n flows, counts refusals.
func (tp *tenantPair) dialAdversary(n int, admit func() error) (refused uint64) {
	tp.w.Kern.AddUser(pairAdvUID, "adversary")
	tp.w.Kern.AssignTenant(pairAdvUID, pairAdvTid)
	tp.advFlows, _, refused = tp.dial(tp.w.Kern.Spawn(pairAdvUID, "adv-svc"), n, 2000, 7000, admit)
	return refused
}

// mustAssemble assembles an experiment's own overlay source.
func mustAssemble(name, src string) *overlay.Program {
	p, err := overlay.Assemble(name, src)
	if err != nil {
		panic(fmt.Sprintf("experiments: assemble %s: %v", name, err))
	}
	return p
}

// loadACL puts E14–E16's fast path in place: the 256-entry flow cache when
// cache is set, and the cacheable ACL on the ingress pipeline.
func (tp *tenantPair) loadACL(name string, cache bool) {
	slots := 0
	if cache {
		slots = e14CacheSlots
	}
	loadACL(tp.w.NIC, name, slots)
}

// loadACL enables a flow cache of slots entries (0: none) on n and loads the
// cacheable ACL (e14ACLSource) on its ingress pipeline.
func loadACL(n *nic.NIC, name string, slots int) {
	if slots > 0 {
		if err := n.EnableFlowCache(slots); err != nil {
			panic(fmt.Sprintf("experiments: enable cache: %v", err))
		}
	}
	if _, _, err := n.LoadProgram(nic.Ingress, mustAssemble(name, e14ACLSource())); err != nil {
		panic(fmt.Sprintf("experiments: load %s: %v", name, err))
	}
}

// onDeliver installs the experiment's delivery upcall (nil: none) and counts.
func (tp *tenantPair) onDeliver(fn func(c *arch.Conn, p *packet.Packet, at sim.Time)) {
	tp.a.SetDeliver(func(c *arch.Conn, p *packet.Packet, at sim.Time) {
		tp.delivered++
		if fn != nil {
			fn(c, p, at)
		}
	})
}

// run offers the victim's traffic — and the adversary's advGbps of advPayload
// frames, if it dialled — until dur, drains what is in flight (the NIC's ledger
// must balance) and returns the frames offered and their silentLoss.
func (tp *tenantPair) run(dur sim.Duration, advPayload int, advGbps float64) (sent uint64, silent int64) {
	gens := []*host.InboundGen{{
		Arch: tp.a, Flows: tp.vicFlows, Payload: pairVictimPayload,
		Interval: host.IntervalFor(pairVictimGbps, pairVictimFrame),
		Until:    sim.Time(dur),
	}}
	if len(tp.advFlows) > 0 {
		gens = append(gens, &host.InboundGen{
			Arch: tp.a, Flows: tp.advFlows, Payload: advPayload,
			Interval: host.IntervalFor(advGbps, advPayload+42),
			Until:    sim.Time(dur),
		})
	}
	for _, g := range gens {
		g.Start(0)
	}
	tp.w.RunUntil(sim.Time(dur))
	balanced(tp.w.Drain())
	for _, g := range gens {
		sent += g.Sent
	}
	return sent, silentLoss(tp.w, sent, tp.delivered)
}

// hitWindow samples the flow cache's hit rate over two windows of a run:
// [0, pre), before the experiment's disturbance, and [lo, end), recovered.
type hitWindow struct {
	fc                                     *nic.FlowCache
	preHits, preLookups, loHits, loLookups uint64
}

// watchHits schedules the two samples; nil when the NIC has no flow cache.
func (tp *tenantPair) watchHits(pre, lo sim.Time) *hitWindow {
	fc := tp.w.NIC.FlowCache()
	if fc == nil {
		return nil
	}
	h := &hitWindow{fc: fc}
	tp.w.Eng.At(pre, func() { h.preHits, h.preLookups = fc.Hits, fc.Hits+fc.Misses })
	tp.w.Eng.At(lo, func() { h.loHits, h.loLookups = fc.Hits, fc.Hits+fc.Misses })
	return h
}

// pcts returns the two windows' hit rates in percent, 0 for an empty window.
func (h *hitWindow) pcts() (pre, post float64) {
	if h == nil {
		return 0, 0
	}
	if h.preLookups > 0 {
		pre = 100 * float64(h.preHits) / float64(h.preLookups)
	}
	if n := h.fc.Hits + h.fc.Misses - h.loLookups; n > 0 {
		post = 100 * float64(h.fc.Hits-h.loHits) / float64(n)
	}
	return pre, post
}
