// Package overload is the resource governor at the NIC/control-plane
// boundary: it converts resource exhaustion — DDIO ways past the E3 cliff,
// ingress FIFO saturation, per-tenant connection floods — into typed,
// observable, prioritized degradation instead of silent collapse.
//
// The paper's position (§4.3) is that the kernel must stay on the resource
// path even when the dataplane bypasses it: admission, pressure and
// shedding are exactly the decisions that need a privileged, whole-host view.
// Four mechanisms compose here:
//
//   - Admission control: connection setup consults a budget tracker (ring
//     memory against the DDIO share, per-tenant connection counts, watchdog
//     saturation) and rejects with a typed AdmissionError naming the
//     exhausted resource — the caller knows *why*, not just "no".
//   - Pressure signals: ring occupancy past the high watermark (or rings
//     at 3/4 of their capacity) raises pressure, which clears only once
//     occupancy falls back under the low watermark (hysteresis, no
//     oscillation); each engage and release edge is counted as a signal.
//   - Priority-aware shedding: under sustained saturation the NIC sheds
//     ingress for low-QoS classes first, reusing the qos class weights, so
//     high-priority goodput survives the cliff.
//   - Watchdog: a virtual-time sampler drives a three-state health machine
//     (ok/pressured/saturated) with streak-based hysteresis, exported via
//     metrics, trace spans, and the overload.status ctl op. The sampler and
//     the hysteresis are internal/supervise's; this package supplies the
//     signals and the actions.
package overload

import (
	"errors"
	"fmt"
	"sort"

	"norman/internal/cache"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/supervise"
	"norman/internal/telemetry"
)

// ErrAdmission is the sentinel every admission rejection wraps: callers can
// errors.Is against it without caring which resource ran out.
var ErrAdmission = errors.New("overload: admission rejected")

// Resource names the budget an admission decision exhausted.
type Resource string

// The admission-controlled resources.
const (
	// ResourceRingDDIO: the aggregate RX descriptor footprint of admitted
	// connections would exceed the governor's share of the DDIO ways — the
	// next connection would push the whole host past the E3 cliff.
	ResourceRingDDIO Resource = "ring_ddio"
	// ResourceTenantConns: the tenant is at its connection cap.
	ResourceTenantConns Resource = "tenant_conns"
	// ResourceIngressFIFO: the watchdog is in the saturated state — the NIC
	// is already dropping, so new connections are refused until it clears.
	ResourceIngressFIFO Resource = "ingress_fifo"
	// ResourceTenantDDIO: the tenant's own slice of the descriptor budget
	// (its weight share of the DDIO capacity) is full — the neighborly
	// version of ResourceRingDDIO.
	ResourceTenantDDIO Resource = "tenant_ddio"
	// ResourceTenantThrottle: the tenant's private health machine is
	// saturated — *its* rings are overflowing or *its* FIFO share is
	// dropping — so its connection setups are refused until it calms, while
	// other tenants keep dialing.
	ResourceTenantThrottle Resource = "tenant_throttle"
	// ResourceProgramCycles: the overlay program's verified worst-case
	// per-packet cycle bound exceeds what the tenant may impose on the
	// shared pipeline.
	ResourceProgramCycles Resource = "program_cycles"
)

// AdmissionError is the typed rejection: which resource, which tenant, and
// the used/budget pair that failed. It wraps ErrAdmission.
type AdmissionError struct {
	Resource Resource
	Tenant   uint32
	Used     int
	Budget   int
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("%v: %s exhausted for tenant %d (%d/%d)",
		ErrAdmission, e.Resource, e.Tenant, e.Used, e.Budget)
}

// Unwrap lets errors.Is(err, ErrAdmission) match.
func (e *AdmissionError) Unwrap() error { return ErrAdmission }

// State is the watchdog's three-level health machine.
type State int

// The health states, in escalation order.
const (
	StateOK        State = iota // resources below watermarks
	StatePressured              // occupancy past the high watermark
	StateSaturated              // the NIC is actively dropping
)

func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StatePressured:
		return "pressured"
	case StateSaturated:
		return "saturated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// The watermarks: the ring/FIFO occupancy fraction that raises pressure, and
// the fraction it must fall back under before pressure releases. Readings in
// the dead band between them hold the current state. ddioShare is the
// fraction of the LLC's DDIO capacity that admitted connections' RX
// descriptor footprints may claim, leaving headroom for payload lines and
// the host's own DMA traffic.
const (
	highWatermark = 0.75
	lowWatermark  = 0.25
	ddioShare     = 0.85
)

// Config parameterizes a Governor. Zero values pick the defaults noted.
type Config struct {
	// MaxConnsPerTenant caps simultaneously open connections per UID.
	// 0 = unlimited.
	MaxConnsPerTenant int
	// SampleEvery is the watchdog sampling period in virtual time; 0 = 10µs.
	SampleEvery sim.Duration
	// EscalateAfter is how many consecutive hot samples escalate the state
	// one level (0 = 2); ClearAfter is how many consecutive calm samples
	// de-escalate it (0 = 3). The asymmetry is the hysteresis: pressure
	// engages faster than it releases, so the signal cannot oscillate at
	// the sampling frequency.
	EscalateAfter int
	ClearAfter    int
	// MaxProgramCycles caps the verified worst-case per-packet cycle bound
	// of overlay programs tenants may install (AdmitProgram). 0 = unlimited.
	MaxProgramCycles int
}

func (c Config) sampleEvery() sim.Duration {
	if c.SampleEvery <= 0 {
		return 10 * sim.Microsecond
	}
	return c.SampleEvery
}

func (c Config) escalateAfter() int {
	if c.EscalateAfter <= 0 {
		return 2
	}
	return c.EscalateAfter
}

func (c Config) clearAfter() int {
	if c.ClearAfter <= 0 {
		return 3
	}
	return c.ClearAfter
}

// Governor is the overload controller for one host: admission budgets, the
// watchdog state machine, its pressure signals and the NIC shed policy all
// hang off it. It runs entirely in virtual time and keeps plain counters, so
// it is deterministic and free when idle.
type Governor struct {
	nic *nic.NIC
	cfg Config

	// Admission budgets.
	tenantConns map[uint32]int
	ringBytes   int // RX descriptor footprint admitted so far
	ringBudget  int // ddioShare × LLC DDIOBytes; 0 = unlimited (no cache model)

	// Watchdog: Start(until)/Stop/Running are the sampler's — until bounds it
	// in virtual time (0 = until Stop), and Stop retains the health state.
	*supervise.Sampler
	machine

	tracer *telemetry.Tracer

	// Per-tenant isolation accounting (ConfigureTenants). tenantOrder
	// keeps every iteration — sampling, snapshots, metrics — in ascending
	// tenant order so no map-range order ever leaks into output.
	tenants     map[uint32]*tenantGov
	tenantOrder []uint32

	// Counters (exported via RegisterMetrics).
	admitted         uint64
	rejectedDDIO     uint64
	rejectedTenant   uint64
	rejectedLoad     uint64
	rejectedThrottle uint64
	rejectedProgram  uint64
	signals          uint64
	shedPkts         uint64
}

// machine is one three-state health machine — the global watchdog's, and each
// tenant's private one — with the drop counter it reads as its saturation
// signal.
type machine struct {
	state       State
	streak      supervise.Streak
	drops       supervise.Delta
	transitions uint64
}

// advance turns one raw reading through the hysteresis: EscalateAfter
// consecutive readings above the current state raise it one level,
// ClearAfter consecutive calm readings below it lower it one level, anything
// else — the dead band between the watermarks included — holds it and breaks
// both runs. It reports the state left behind when the machine moved.
func (m *machine) advance(raw State, calm bool, cfg Config) (prev State, moved bool) {
	dir := 0
	switch {
	case raw > m.state:
		dir = +1
	case raw < m.state && calm:
		dir = -1
	}
	step := m.streak.Step(dir, cfg.escalateAfter(), cfg.clearAfter())
	if step == 0 {
		return m.state, false
	}
	prev = m.state
	m.state += State(step)
	m.transitions++
	return prev, true
}

// tenantGov is one tenant's private budget and health machine.
type tenantGov struct {
	tenant     uint32
	weight     int
	ringBytes  int
	ringBudget int // weight share of the governor budget; 0 = unlimited
	machine
}

// NewGovernor builds a governor over the NIC. llc supplies the DDIO budget;
// nil (no cache model) leaves ring admission unlimited.
func NewGovernor(eng *sim.Engine, n *nic.NIC, llc *cache.LLC, cfg Config) *Governor {
	g := &Governor{
		nic:         n,
		cfg:         cfg,
		tenantConns: make(map[uint32]int),
	}
	g.Sampler = supervise.NewSampler(eng, cfg.sampleEvery(), g.sample)
	if llc != nil {
		g.ringBudget = int(ddioShare * float64(llc.DDIOBytes()))
	}
	return g
}

// ConfigureTenants (re)installs per-tenant isolation accounting: the ring
// budget is split weight-proportionally across the listed tenants (mirroring
// the NIC scheduler's weights) and each gets a fresh health machine with the
// global watchdog's hysteresis, so a tenant that saturates its own share is
// throttled with typed errors while its neighbors keep dialing. Existing
// per-tenant charges are preserved for tenants that survive the
// reconfiguration.
func (g *Governor) ConfigureTenants(weights map[uint32]int) {
	ids := make([]uint32, 0, len(weights))
	total := 0
	for id, w := range weights {
		if w < 1 {
			w = 1
		}
		total += w
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	prev := g.tenants
	g.tenants = make(map[uint32]*tenantGov, len(ids))
	g.tenantOrder = ids
	for _, id := range ids {
		w := weights[id]
		if w < 1 {
			w = 1
		}
		tg := &tenantGov{tenant: id, weight: w}
		if old, ok := prev[id]; ok {
			tg.ringBytes = old.ringBytes
		}
		if g.ringBudget > 0 && total > 0 {
			tg.ringBudget = g.ringBudget * w / total
		}
		g.tenants[id] = tg
	}
}

// Weights returns the tenant weights the budgets were last split by (empty
// before ConfigureTenants), so a caller can tell whether a reconfiguration
// would change anything before it resets the tenants' health machines.
func (g *Governor) Weights() map[uint32]int {
	out := make(map[uint32]int, len(g.tenants))
	for id, tg := range g.tenants {
		out[id] = tg.weight
	}
	return out
}

// SetTracer attaches a tracer; state transitions then emit "pressure" spans.
func (g *Governor) SetTracer(t *telemetry.Tracer) { g.tracer = t }

// State returns the watchdog's current health state.
func (g *Governor) State() State { return g.state }

// connCost is the RX descriptor footprint one connection pins in the DDIO
// ways: ringSize descriptor cache lines. This is the quantity whose aggregate
// crossing the DDIO capacity produces the E3 cliff.
func (g *Governor) connCost() int {
	return g.nic.RingSize() * 64
}

// RingBudget reports the admitted descriptor bytes and the budget
// (0 budget = unlimited).
func (g *Governor) RingBudget() (used, budget int) { return g.ringBytes, g.ringBudget }

// AdmitConn runs admission control for one connection owned by tenant. On
// success the budgets are charged and nil is returned; the caller must pair
// it with ReleaseConn when the connection closes (or fails to open). On
// rejection the returned error wraps ErrAdmission and names the exhausted
// resource; no budget is charged.
func (g *Governor) AdmitConn(tenant uint32) error {
	if cap := g.cfg.MaxConnsPerTenant; cap > 0 {
		if used := g.tenantConns[tenant]; used >= cap {
			g.rejectedTenant++
			return &AdmissionError{Resource: ResourceTenantConns, Tenant: tenant, Used: used, Budget: cap}
		}
	}
	if g.state == StateSaturated {
		g.rejectedLoad++
		used, capacity, _ := g.nic.RxOccupancy()
		return &AdmissionError{Resource: ResourceIngressFIFO, Tenant: tenant, Used: used, Budget: capacity}
	}
	cost := g.connCost()
	tg := g.tenants[tenant]
	if tg != nil {
		if tg.state == StateSaturated {
			g.rejectedThrottle++
			used, capacity, _ := g.nic.TenantRxOccupancy(tenant)
			return &AdmissionError{Resource: ResourceTenantThrottle, Tenant: tenant, Used: used, Budget: capacity}
		}
		if tg.ringBudget > 0 && tg.ringBytes+cost > tg.ringBudget {
			g.rejectedDDIO++
			return &AdmissionError{Resource: ResourceTenantDDIO, Tenant: tenant, Used: tg.ringBytes + cost, Budget: tg.ringBudget}
		}
	}
	if g.ringBudget > 0 && g.ringBytes+cost > g.ringBudget {
		g.rejectedDDIO++
		return &AdmissionError{Resource: ResourceRingDDIO, Tenant: tenant, Used: g.ringBytes + cost, Budget: g.ringBudget}
	}
	g.tenantConns[tenant]++
	g.ringBytes += cost
	if tg != nil {
		tg.ringBytes += cost
	}
	g.admitted++
	return nil
}

// AdmitProgram gates overlay-program installation the way AdmitConn gates
// connection setup: the kernel refuses a tenant's program when its verified
// worst-case per-packet cycle bound exceeds MaxProgramCycles. This is the
// interposition the paper argues for — in a bypass world nothing stands
// between a tenant and the shared pipeline, so an overlay-heavy neighbor
// taxes every packet on the NIC.
func (g *Governor) AdmitProgram(tenant uint32, cycleBound int) error {
	if max := g.cfg.MaxProgramCycles; max > 0 && cycleBound > max {
		g.rejectedProgram++
		return &AdmissionError{Resource: ResourceProgramCycles, Tenant: tenant, Used: cycleBound, Budget: max}
	}
	return nil
}

// ReleaseConn returns one connection's budget charges.
func (g *Governor) ReleaseConn(tenant uint32) {
	if g.tenantConns[tenant] > 0 {
		g.tenantConns[tenant]--
		if g.tenantConns[tenant] == 0 {
			delete(g.tenantConns, tenant)
		}
	}
	if g.ringBytes >= g.connCost() {
		g.ringBytes -= g.connCost()
	}
	if tg := g.tenants[tenant]; tg != nil && tg.ringBytes >= g.connCost() {
		tg.ringBytes -= g.connCost()
	}
}

// InstallShedding installs the priority-aware shed policy on the NIC:
// while the watchdog is saturated, ingress frames whose class weight is
// below the heaviest configured weight are dropped before they consume FIFO
// or DMA resources. classOf maps a packet's owning UID to its QoS class;
// weights are the qos scheduler's class weights (reused verbatim, so ingress
// shedding and egress scheduling agree on who matters).
func (g *Governor) InstallShedding(classOf func(uid uint32) uint32, weights map[uint32]float64) {
	protect := 0.0
	for _, w := range weights {
		if w > protect {
			protect = w
		}
	}
	g.nic.SetShedPolicy(func(c *nic.Conn, _ *packet.Packet) bool {
		if g.state != StateSaturated {
			return false
		}
		if weights[classOf(c.Meta.UID)] >= protect {
			return false
		}
		g.shedPkts++
		return true
	})
}

// occupancy returns the aggregate RX ring occupancy fraction, the ingress
// FIFO fill fraction, and how many rings sit above their high watermark.
func (g *Governor) occupancy() (occ, fifo float64, overHigh int) {
	used, capacity, over := g.nic.RxOccupancy()
	if capacity > 0 {
		occ = float64(used) / float64(capacity)
	}
	if w := g.nic.RxWindow(); w > 0 {
		fifo = float64(g.nic.RxInflight()) / float64(w)
	}
	return occ, fifo, over
}

// sample takes one watchdog reading and advances the global machine and then
// each tenant's: a new drop since the last sample reads saturated, occupancy
// past the high watermark reads pressured, and only a reading back under the
// *low* watermark with no new drops counts as calm.
func (g *Governor) sample(now sim.Time) bool {
	occ, fifo, overHigh := g.occupancy()
	delta := g.drops.Take(g.nic.RxFifoDrop + g.nic.RxDropRing)
	raw := rawState(delta, occ >= highWatermark || fifo >= highWatermark || overHigh > 0)
	calm := occ <= lowWatermark && fifo <= lowWatermark && delta == 0
	if prev, moved := g.advance(raw, calm, g.cfg); moved {
		g.transitioned(prev, now)
	}

	// Per-tenant health machines, in sorted tenant order: each tenant is
	// judged only by its own rings and its own FIFO-share drops, through the
	// same escalate/clear hysteresis as the global watchdog.
	for _, id := range g.tenantOrder {
		g.sampleTenant(g.tenants[id], now)
	}
	return true
}

// rawState ranks one reading: drops outrank pressure.
func rawState(newDrops uint64, pressured bool) State {
	switch {
	case newDrops > 0:
		return StateSaturated
	case pressured:
		return StatePressured
	}
	return StateOK
}

// sampleTenant advances one tenant's machine, emitting a "throttle" span
// under the "tenant" layer on a transition so traces show who was squeezed
// and when.
func (g *Governor) sampleTenant(tg *tenantGov, now sim.Time) {
	used, capacity, overHigh := g.nic.TenantRxOccupancy(tg.tenant)
	var occ float64
	if capacity > 0 {
		occ = float64(used) / float64(capacity)
	}
	delta := tg.drops.Take(g.nic.TenantFifoDrops(tg.tenant))
	budgetFull := tg.ringBudget > 0 && tg.ringBytes+g.connCost() > tg.ringBudget
	raw := rawState(delta, occ >= highWatermark || overHigh > 0 || budgetFull)
	calm := occ <= lowWatermark && delta == 0 && !budgetFull
	if prev, moved := tg.advance(raw, calm, g.cfg); moved && g.tracer != nil {
		g.tracer.Record(g.tracer.StampID(), now, "tenant", "throttle",
			fmt.Sprintf("tenant=%d %s->%s", tg.tenant, prev, tg.state))
	}
}

// transitioned follows a move of the global machine: emit a trace span, and
// count a signal on the pressure edge (leaving OK / returning to OK).
func (g *Governor) transitioned(prev State, now sim.Time) {
	if g.tracer != nil {
		g.tracer.Record(g.tracer.StampID(), now, "overload", "pressure", prev.String()+"->"+g.state.String())
	}
	if (g.state != StateOK) != (prev != StateOK) {
		g.signals++
	}
}

// Snapshot is the governor's externally visible state, served over the
// overload.status ctl op and printed by nnetstat -pressure.
type Snapshot struct {
	State            string  `json:"state"`
	Transitions      uint64  `json:"transitions"`
	Admitted         uint64  `json:"admitted"`
	RejectedDDIO     uint64  `json:"rejected_ddio"`
	RejectedTenant   uint64  `json:"rejected_tenant"`
	RejectedLoad     uint64  `json:"rejected_pressure"`
	RejectedThrottle uint64  `json:"rejected_throttle"`
	RejectedProgram  uint64  `json:"rejected_program"`
	RingBytes        int     `json:"ring_bytes"`
	RingBudget       int     `json:"ring_budget_bytes"`
	Occupancy        float64 `json:"occupancy_frac"`
	FifoFrac         float64 `json:"fifo_frac"`
	ShedPackets      uint64  `json:"shed_packets"`
	Signals          uint64  `json:"backpressure_signals"`
	Watching         bool    `json:"watching"`

	// Tenants lists per-tenant accounting in ascending tenant id order —
	// always sorted, so snapshots, metrics dumps and ctl output are
	// deterministic run to run.
	Tenants []TenantSnapshot `json:"tenants,omitempty"`
}

// TenantSnapshot is one tenant's row of the governor snapshot.
type TenantSnapshot struct {
	Tenant      uint32 `json:"tenant"`
	Weight      int    `json:"weight"`
	Conns       int    `json:"conns"`
	RingBytes   int    `json:"ring_bytes"`
	RingBudget  int    `json:"ring_budget_bytes"`
	State       string `json:"state"`
	Transitions uint64 `json:"transitions"`
	FifoDrops   uint64 `json:"fifo_drops"`
}

// sortedTenantIDs returns the union of configured tenants and tenants that
// merely hold connections, ascending. Snapshot and metrics iterate this —
// never the maps directly — so map-range order cannot leak into output.
func (g *Governor) sortedTenantIDs() []uint32 {
	seen := make(map[uint32]bool, len(g.tenantOrder)+len(g.tenantConns))
	ids := make([]uint32, 0, len(g.tenantOrder)+len(g.tenantConns))
	for _, id := range g.tenantOrder {
		seen[id] = true
		ids = append(ids, id)
	}
	for id := range g.tenantConns {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TenantSnapshots returns per-tenant accounting rows in ascending tenant
// order.
func (g *Governor) TenantSnapshots() []TenantSnapshot {
	ids := g.sortedTenantIDs()
	if len(ids) == 0 {
		return nil
	}
	out := make([]TenantSnapshot, 0, len(ids))
	for _, id := range ids {
		row := TenantSnapshot{
			Tenant:    id,
			Weight:    1,
			Conns:     g.tenantConns[id],
			State:     StateOK.String(),
			FifoDrops: g.nic.TenantFifoDrops(id),
		}
		if tg, ok := g.tenants[id]; ok {
			row.Weight = tg.weight
			row.RingBytes = tg.ringBytes
			row.RingBudget = tg.ringBudget
			row.State = tg.state.String()
			row.Transitions = tg.transitions
		}
		out = append(out, row)
	}
	return out
}

// Snapshot captures the current state for the control plane.
func (g *Governor) Snapshot() Snapshot {
	occ, fifo, _ := g.occupancy()
	return Snapshot{
		State:            g.state.String(),
		Transitions:      g.transitions,
		Admitted:         g.admitted,
		RejectedDDIO:     g.rejectedDDIO,
		RejectedTenant:   g.rejectedTenant,
		RejectedLoad:     g.rejectedLoad,
		RejectedThrottle: g.rejectedThrottle,
		RejectedProgram:  g.rejectedProgram,
		RingBytes:        g.ringBytes,
		RingBudget:       g.ringBudget,
		Occupancy:        occ,
		FifoFrac:         fifo,
		ShedPackets:      g.shedPkts,
		Signals:          g.signals,
		Watching:         g.Running(),
		Tenants:          g.TenantSnapshots(),
	}
}

// Rejected returns the total typed admission rejections across resources.
func (g *Governor) Rejected() uint64 {
	return g.rejectedDDIO + g.rejectedTenant + g.rejectedLoad + g.rejectedThrottle + g.rejectedProgram
}

// ShedPackets returns frames dropped by the installed shed policy.
func (g *Governor) ShedPackets() uint64 { return g.shedPkts }
