// Package health is Norman's NIC hardware-health monitor: the subsystem that
// makes the paper's always-available kernel slow path *operational* under
// hardware faults instead of merely present. The faults layer can flip
// flow-cache SRAM bits, stall the DMA engine, flap the link and storm the
// overlay pipeline with traps; this package watches the per-component error
// and latency signals those faults move, and on sustained degradation
// quarantines the failing component — failing its traffic over to the kernel
// interposition slow path — then probes and restores it after a probation
// window.
//
// The state machine per component (DESIGN.md §11):
//
//	Healthy --EscalateAfter faulty samples--> Quarantined   (failover)
//	Quarantined --ProbationAfter calm samples--> Probation  (probe)
//	Probation --faulty sample--> Quarantined                (relapse)
//	Probation --RestoreAfter calm samples--> Healthy        (failback)
//
// Quarantine actions per component:
//
//   - flowcache: bypass + flush the cache (every packet takes the full
//     interpretation slow path; nothing memoized under corrupted SRAM
//     survives);
//   - pipeline: reinstall the last-good overlay chain;
//   - dma: clamp the ingress FIFO to a small bound so a stalled engine
//     back-pressures the wire instead of queueing unbounded work;
//   - link: bookkeeping only — carrier loss is announced by the MAC and
//     recovers by itself; the monitor's job is to count and trace it.
//
// Probing undoes the action; a relapse during probation re-applies it. All
// sampling runs on the world's virtual-time engine with no RNG draws, so the
// monitor is deterministic by construction and byte-identical at any worker
// width. The sampler and the streak counting are internal/supervise's; this
// package supplies the four signals and the failover actions.
package health

import (
	"norman/internal/nic"
	"norman/internal/sim"
	"norman/internal/supervise"
	"norman/internal/telemetry"
)

// Component names one monitored NIC component.
type Component string

// Monitored components, in the (alphabetical) order Status reports them.
const (
	DMA       Component = "dma"
	FlowCache Component = "flowcache"
	Link      Component = "link"
	Pipeline  Component = "pipeline"
)

// State is a component's health state.
type State int

// States.
const (
	Healthy State = iota
	Quarantined
	Probation
)

func (s State) String() string {
	switch s {
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	default:
		return "healthy"
	}
}

// Config tunes the monitor. The zero value is usable: every knob has a
// default chosen so the E15 fault schedule is detected within a few samples
// without a single absorbed trap tripping a quarantine.
type Config struct {
	// SampleEvery is the signal sampling period (default 5 µs).
	SampleEvery sim.Duration
	// EscalateAfter is how many consecutive faulty samples quarantine a
	// component (default 2 — hysteresis against one-off blips).
	EscalateAfter int
	// ProbationAfter is how many consecutive calm samples a quarantined
	// component needs before the monitor probes it (default 6).
	ProbationAfter int
	// RestoreAfter is how many consecutive calm samples a probing component
	// needs before it is restored to healthy (default 3).
	RestoreAfter int
}

const (
	// dmaStallFrac is the fraction of a sample period the DMA engine may
	// spend stalled before the dma component counts as faulty.
	dmaStallFrac = 0.5
	// dmaQueueBound is the ingress FIFO depth a quarantined dma component is
	// clamped to — the bounded queue that converts a stalled engine into
	// wire backpressure instead of unbounded buffering.
	dmaQueueBound = 16
)

func (c Config) sampleEvery() sim.Duration {
	if c.SampleEvery > 0 {
		return c.SampleEvery
	}
	return 5 * sim.Microsecond
}

func (c Config) escalateAfter() int {
	if c.EscalateAfter > 0 {
		return c.EscalateAfter
	}
	return 2
}

func (c Config) probationAfter() int {
	if c.ProbationAfter > 0 {
		return c.ProbationAfter
	}
	return 6
}

func (c Config) restoreAfter() int {
	if c.RestoreAfter > 0 {
		return c.RestoreAfter
	}
	return 3
}

// comp is one component's runtime state.
type comp struct {
	name   Component
	state  State
	streak supervise.Streak // faulty samples while healthy, calm ones after
	faulty bool

	// Event counters, surfaced in Status and metrics.
	signals     uint64 // faulty samples observed
	quarantines uint64
	failovers   uint64
	failbacks   uint64

	savedWindow int // dma: the rxWindow to restore on probe
}

// ComponentStatus is one component's externally visible health row.
type ComponentStatus struct {
	Component   Component
	State       State
	Signals     uint64
	Quarantines uint64
	Failovers   uint64
	Failbacks   uint64
}

// Monitor samples one NIC's component health signals and drives the
// quarantine/probation state machine. Like everything else on the dataplane
// it lives on one engine's event loop and is not safe for concurrent use.
type Monitor struct {
	n      *nic.NIC
	cfg    Config
	tracer *telemetry.Tracer

	// Start(until)/Stop/Running are the sampler's: until bounds it in virtual
	// time (0 = forever), and Stop retains component states and any active
	// quarantine actions.
	*supervise.Sampler
	comps []*comp

	// The counters read as per-period signals.
	stallNs, ckFails, traps supervise.Delta

	// Aggregate event counters.
	Samples     uint64
	Quarantines uint64
	Failovers   uint64
	Failbacks   uint64
	Probes      uint64
}

// New builds a monitor over a world's engine and NIC. Creating the monitor
// turns on checksum verification in the NIC's flow cache, if it has one (the
// detection half of the failover story); the facade's resolve covers a cache
// enabled after the monitor.
func New(eng *sim.Engine, n *nic.NIC, cfg Config) *Monitor {
	m := &Monitor{
		n:   n,
		cfg: cfg,
		comps: []*comp{
			{name: DMA},
			{name: FlowCache},
			{name: Link},
			{name: Pipeline},
		},
	}
	m.Sampler = supervise.NewSampler(eng, cfg.sampleEvery(), m.sample)
	if fc := n.FlowCache(); fc != nil {
		fc.SetVerify(true)
	}
	return m
}

// SetTracer attaches a trace sink: every quarantine, failover, probe and
// failback becomes a span event on the "health" layer.
func (m *Monitor) SetTracer(tr *telemetry.Tracer) { m.tracer = tr }

// span records one health lifecycle event when tracing is on.
func (m *Monitor) span(now sim.Time, point string, c *comp) {
	if m.tracer == nil {
		return
	}
	m.tracer.Record(m.tracer.StampID(), now, "health", point, "component="+string(c.name))
}

// sample reads each component's signal once and advances its state machine.
// Signals are counter deltas (or levels) over one period, so a burst that
// happened entirely inside a period is seen exactly once — and a component
// must stay noisy across EscalateAfter periods to be quarantined.
func (m *Monitor) sample(now sim.Time) bool {
	m.Samples++

	// DMA: injected stall time per period against the allowed fraction.
	dStall := m.stallNs.Take(m.n.DMAStallNs)
	budget := uint64(float64(m.cfg.sampleEvery()/sim.Nanosecond) * dmaStallFrac)
	// Flow cache: detected checksum failures per period.
	dCk := m.ckFails.Take(m.n.ChecksumFails())
	// Pipeline: traps absorbed (fallbacks) or terminal (fail-opens).
	dTraps := m.traps.Take(m.n.Traps())

	for _, c := range m.comps {
		switch c.name {
		case DMA:
			c.faulty = dStall > budget
		case FlowCache:
			c.faulty = dCk > 0
		case Link:
			c.faulty = !m.n.LinkUp()
		case Pipeline:
			c.faulty = dTraps > 0
		}
		if c.faulty {
			c.signals++
		}
		m.advance(now, c)
	}
	return true
}

// advance runs one component's state machine for one sample. The state picks
// the two streak bounds; the streak says when one is reached.
func (m *Monitor) advance(now sim.Time, c *comp) {
	dir := -1
	if c.faulty {
		dir = +1
	}
	up, down := m.cfg.escalateAfter(), 0 // healthy: calm samples lead nowhere
	switch c.state {
	case Quarantined:
		up, down = 0, m.cfg.probationAfter()
	case Probation:
		// Relapse: a single faulty sample the moment the component is trusted
		// again re-quarantines it (a fresh event, counted again).
		up, down = 1, m.cfg.restoreAfter()
	}
	switch c.streak.Step(dir, up, down) {
	case +1:
		m.quarantine(now, c)
	case -1:
		if c.state == Quarantined {
			m.probe(now, c)
			return
		}
		c.state = Healthy
		c.failbacks++
		m.Failbacks++
		m.span(now, "failback", c)
	}
}

// quarantine applies the component's failover action and marks it
// quarantined. One fault event counts exactly once here regardless of how
// many packets it touched — the per-retry inflation the trap-fallback audit
// removed.
func (m *Monitor) quarantine(now sim.Time, c *comp) {
	c.state = Quarantined
	c.quarantines++
	m.Quarantines++
	m.span(now, "quarantine", c)
	switch c.name {
	case FlowCache:
		// Disable the cache without releasing its SRAM: every packet runs
		// full interpretation — the kernel slow path the paper keeps warm.
		m.n.SetFlowCacheBypass(true)
	case Pipeline:
		// Swap the storming chain out for the last-good one (the E4 reload
		// machinery in reverse). If none exists the trap fallback has
		// already failed open; there is nothing further to fail over to.
		m.n.ReinstallLastGood(nic.Ingress)
	case DMA:
		// Bound the ingress queue so a stalled engine back-pressures the
		// wire (FIFO drops the governor can see) instead of hoarding frames.
		if c.savedWindow == 0 {
			c.savedWindow = m.n.RxWindow()
		}
		if m.n.RxWindow() > dmaQueueBound {
			m.n.SetRxWindow(dmaQueueBound)
		}
	case Link:
		// Carrier loss announces itself and heals itself; nothing to do.
	}
	c.failovers++
	m.Failovers++
	m.span(now, "failover", c)
}

// probe undoes the quarantine action and moves the component to probation:
// the fast path is trusted again, under watch — a relapse re-quarantines.
func (m *Monitor) probe(now sim.Time, c *comp) {
	c.state = Probation
	m.Probes++
	m.span(now, "probe", c)
	switch c.name {
	case FlowCache:
		m.n.SetFlowCacheBypass(false)
	case DMA:
		if c.savedWindow > 0 {
			m.n.SetRxWindow(c.savedWindow)
			c.savedWindow = 0
		}
	case Pipeline, Link:
		// The last-good chain stays (it is the restored state); the link
		// restored itself.
	}
}

// Status returns one row per component in alphabetical component order —
// deterministic, snapshot semantics.
func (m *Monitor) Status() []ComponentStatus {
	out := make([]ComponentStatus, 0, len(m.comps))
	for _, c := range m.comps {
		out = append(out, ComponentStatus{
			Component:   c.name,
			State:       c.state,
			Signals:     c.signals,
			Quarantines: c.quarantines,
			Failovers:   c.failovers,
			Failbacks:   c.failbacks,
		})
	}
	return out
}

// RegisterMetrics exposes the monitor's counters and per-component state on
// a telemetry registry (the norman_health_* series in OBSERVABILITY.md).
func (m *Monitor) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	r.Counter(telemetry.Desc{Layer: "health", Name: "samples", Help: "health sampling ticks", Unit: "samples"},
		labels, func() uint64 { return m.Samples })
	r.Counter(telemetry.Desc{Layer: "health", Name: "quarantines", Help: "component quarantine events (one per fault event, not per retry)", Unit: "events"},
		labels, func() uint64 { return m.Quarantines })
	r.Counter(telemetry.Desc{Layer: "health", Name: "failovers", Help: "failover actions applied (traffic moved to the kernel slow path)", Unit: "events"},
		labels, func() uint64 { return m.Failovers })
	r.Counter(telemetry.Desc{Layer: "health", Name: "failbacks", Help: "components restored to healthy after probation", Unit: "events"},
		labels, func() uint64 { return m.Failbacks })
	r.Counter(telemetry.Desc{Layer: "health", Name: "probes", Help: "probation probes (quarantine action undone, component under watch)", Unit: "events"},
		labels, func() uint64 { return m.Probes })
	for _, c := range m.comps {
		c := c
		cl := make(telemetry.Labels, len(labels)+1)
		for k, v := range labels {
			cl[k] = v
		}
		cl["component"] = string(c.name)
		r.Gauge(telemetry.Desc{Layer: "health", Name: "component_state", Help: "component health state (0 healthy, 1 quarantined, 2 probation)", Unit: "state"},
			cl, func() float64 { return float64(c.state) })
		r.Counter(telemetry.Desc{Layer: "health", Name: "component_signal", Help: "faulty samples observed for the component", Unit: "samples"},
			cl, func() uint64 { return c.signals })
		r.Counter(telemetry.Desc{Layer: "health", Name: "component_quarantines", Help: "quarantine events for the component", Unit: "events"},
			cl, func() uint64 { return c.quarantines })
	}
}
