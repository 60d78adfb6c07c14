package overload

import (
	"fmt"

	"norman/internal/telemetry"
)

// RegisterMetrics exposes the governor's admission budgets, watchdog state
// and degradation counters on a registry under the "overload" layer. All
// reads are lazy closures over plain fields — registration costs the hot
// path nothing.
func (g *Governor) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	r.Gauge(telemetry.Desc{Layer: "overload", Name: "state", Help: "watchdog health state (0=ok 1=pressured 2=saturated)", Unit: "state"},
		labels, func() float64 { return float64(g.state) })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "transitions", Help: "watchdog state transitions", Unit: "transitions"},
		labels, func() uint64 { return g.transitions })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "admitted", Help: "connections admitted by the governor", Unit: "conns"},
		labels, func() uint64 { return g.admitted })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "rejected_ddio", Help: "admissions rejected because the ring footprint would exceed the DDIO share", Unit: "conns"},
		labels, func() uint64 { return g.rejectedDDIO })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "rejected_tenant", Help: "admissions rejected at the per-tenant connection cap", Unit: "conns"},
		labels, func() uint64 { return g.rejectedTenant })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "rejected_pressure", Help: "admissions rejected while the watchdog was saturated", Unit: "conns"},
		labels, func() uint64 { return g.rejectedLoad })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "shed_packets", Help: "ingress frames shed by the priority-aware policy while saturated", Unit: "frames"},
		labels, func() uint64 { return g.shedPkts })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "backpressure_signals", Help: "watchdog pressure edges: leaving ok plus returning to ok", Unit: "signals"},
		labels, func() uint64 { return g.signals })
	r.Gauge(telemetry.Desc{Layer: "overload", Name: "ring_bytes", Help: "RX descriptor bytes charged against the DDIO share by admitted connections", Unit: "bytes"},
		labels, func() float64 { return float64(g.ringBytes) })
	r.Gauge(telemetry.Desc{Layer: "overload", Name: "ring_budget_bytes", Help: "descriptor-byte budget derived from the DDIO share (0 = unlimited)", Unit: "bytes"},
		labels, func() float64 { return float64(g.ringBudget) })
	r.Gauge(telemetry.Desc{Layer: "overload", Name: "occupancy_frac", Help: "aggregate RX ring occupancy fraction at render time", Unit: "fraction"},
		labels, func() float64 { occ, _, _ := g.occupancy(); return occ })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "rejected_throttle", Help: "admissions rejected while the tenant's private health machine was saturated", Unit: "conns"},
		labels, func() uint64 { return g.rejectedThrottle })
	r.Counter(telemetry.Desc{Layer: "overload", Name: "rejected_program", Help: "overlay programs refused by the per-tenant cycle-bound gate", Unit: "programs"},
		labels, func() uint64 { return g.rejectedProgram })

	// Per-tenant isolation accounting, one labeled series per configured
	// tenant, registered in sorted tenant order.
	for _, id := range g.tenantOrder {
		id := id
		tl := make(telemetry.Labels, len(labels)+1)
		for k, v := range labels {
			tl[k] = v
		}
		tl["tenant"] = fmt.Sprint(id)
		r.Gauge(telemetry.Desc{Layer: "tenant", Name: "conns", Help: "connections the tenant currently holds admitted", Unit: "conns"},
			tl, func() float64 { return float64(g.tenantConns[id]) })
		r.Gauge(telemetry.Desc{Layer: "tenant", Name: "ring_bytes", Help: "descriptor bytes charged against the tenant's budget share", Unit: "bytes"},
			tl, func() float64 { return float64(g.tenants[id].ringBytes) })
		r.Gauge(telemetry.Desc{Layer: "tenant", Name: "ring_budget_bytes", Help: "the tenant's weight share of the descriptor budget (0 = unlimited)", Unit: "bytes"},
			tl, func() float64 { return float64(g.tenants[id].ringBudget) })
		r.Gauge(telemetry.Desc{Layer: "tenant", Name: "state", Help: "tenant health state (0=ok 1=pressured 2=saturated)", Unit: "state"},
			tl, func() float64 { return float64(g.tenants[id].state) })
		r.Counter(telemetry.Desc{Layer: "tenant", Name: "throttle_transitions", Help: "tenant health-machine transitions", Unit: "transitions"},
			tl, func() uint64 { return g.tenants[id].transitions })
		r.Counter(telemetry.Desc{Layer: "tenant", Name: "fifo_drops", Help: "ingress frames dropped at the tenant's FIFO share", Unit: "frames"},
			tl, func() uint64 { return g.nic.TenantFifoDrops(id) })
	}
}
