package nic

import (
	"fmt"
	"math"

	"norman/internal/sim"
	"norman/internal/telemetry"
)

// RegisterMetrics exposes the NIC's dataplane counters and SRAM occupancy
// through a telemetry registry. The NIC keeps plain uint64 fields on the hot
// path; the registry reads them lazily through closures at render time, so
// registration adds no per-packet cost.
func (n *NIC) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	desc := func(name, help, unit string) telemetry.Desc {
		return telemetry.Desc{Layer: "nic", Name: name, Help: help, Unit: unit}
	}
	counter := func(name, help, unit string, v *uint64) {
		r.Counter(desc(name, help, unit), labels, func() uint64 { return *v })
	}
	counter("rx_wire", "frames that arrived from the wire", "frames", &n.RxWire)
	counter("rx_slow_path", "frames punted to the software slow path", "frames", &n.RxSlowPath)
	counter("rx_pause_buffered", "ingress frames held and replayed by the cutover pause buffer", "frames", &n.RxPauseBuffered)
	counter("tx_frames", "frames transmitted onto the wire", "frames", &n.TxFrames)
	counter("tx_bytes", "bytes transmitted onto the wire", "bytes", &n.TxBytes)
	counter("dma_desc_hit", "descriptor fetches satisfied by the on-NIC shadow (no PCIe round trip)", "fetches", &n.DMADescHit)
	counter("dma_desc_miss", "descriptor fetches that crossed PCIe to host memory", "fetches", &n.DMADescMiss)
	counter("trap_fallbacks", "overlay runtime traps absorbed by falling back to the last-good chain", "traps", &n.TrapFallbacks)
	counter("trap_fail_opens", "double-trap events that unloaded the pipeline and failed open", "traps", &n.TrapFailOpens)
	counter("dma_stall_ns", "injected DMA-engine stall time", "ns", &n.DMAStallNs)
	// The drop counters and the conservation ledger: one series per row of
	// the tables in ledger.go.
	for _, row := range reasons {
		counter(row.metric, row.help, "frames", row.ctr(n))
	}
	for _, term := range ledgerTerms {
		read := term.read
		r.Gauge(desc("ledger_"+term.name, term.help, "frames"), labels, func() float64 { return float64(read(n)) })
	}
	r.Gauge(desc("ledger_residual", "frames the conservation ledger cannot account for, rx plus tx (0 on a NIC that loses nothing silently)", "frames"),
		labels, func() float64 {
			rx, tx := n.residuals()
			return math.Abs(float64(rx)) + math.Abs(float64(tx))
		})
	r.Gauge(desc("sram_used_bytes", "on-NIC SRAM consumed by connections, steering entries and overlay programs", "bytes"),
		labels, func() float64 { used, _ := n.SRAM(); return float64(used) })
	r.Gauge(desc("sram_budget_bytes", "total on-NIC SRAM budget", "bytes"),
		labels, func() float64 { _, budget := n.SRAM(); return float64(budget) })

	// Flow-cache series register only when the cache is installed at
	// registration time (like the per-tenant scheduler series below); the
	// closures re-read n.fc so a later re-enable keeps the series live.
	fcRead := func(read func(*FlowCache) uint64) func() uint64 {
		return func() uint64 {
			if f := n.fc; f != nil {
				return read(f)
			}
			return 0
		}
	}
	if n.fc != nil {
		fc := func(name, help, unit string, read func(*FlowCache) uint64) {
			r.Counter(desc("flowcache_"+name, help, unit), labels, fcRead(read))
		}
		fc("hits", "ingress frames served by the exact-match flow cache (no overlay interpretation)", "frames", func(f *FlowCache) uint64 { return f.Hits })
		fc("misses", "ingress frames that probed the flow cache and took the slow path", "frames", func(f *FlowCache) uint64 { return f.Misses })
		fc("installs", "flow-cache entries installed after a slow-path run", "entries", func(f *FlowCache) uint64 { return f.Installs })
		fc("evictions", "flow-cache entries evicted by the per-bucket clock", "entries", func(f *FlowCache) uint64 { return f.Evictions })
		fc("invalidations", "flow-cache entries dropped by reload/steering/close invalidation", "entries", func(f *FlowCache) uint64 { return f.Invalidations })
		fc("denied", "flow-cache installs refused because the tenant's partition had no victim", "entries", func(f *FlowCache) uint64 { return f.Denied })
		fc("checksum_fails", "flow-cache hits refused because the entry's checksum no longer matched (detected SRAM corruption)", "frames", func(f *FlowCache) uint64 { return f.ChecksumFails })
		fc("corrupt_served", "lookups that applied a corrupted entry's decision (ground truth; non-zero only with verification off)", "frames", func(f *FlowCache) uint64 { return f.CorruptServed })
		entries := fcRead(func(f *FlowCache) uint64 { return uint64(f.Len()) })
		capacity := fcRead(func(f *FlowCache) uint64 { return uint64(f.Capacity()) })
		r.Gauge(desc("flowcache_entries", "live flow-cache entries", "entries"), labels, func() float64 { return float64(entries()) })
		r.Gauge(desc("flowcache_capacity", "flow-cache entry slots charged against the SRAM budget", "entries"), labels, func() float64 { return float64(capacity()) })
	}

	// Per-tenant scheduler accounting, one labeled series per tenant known
	// to the scheduler at registration (none without weights), in sorted
	// tenant order.
	for _, st := range n.tsched.Stats() {
		id := st.Tenant
		tl := telemetry.Labels{"tenant": fmt.Sprint(id)} // the registry copies the label set
		for k, v := range labels {
			tl[k] = v
		}
		tenant := func(name, help, unit string, read func() uint64) {
			r.Counter(desc("tenant_"+name, help, unit), tl, read)
		}
		tenant("pipe_grants", "pipeline slots granted to the tenant by the DRR scheduler", "grants", func() uint64 { return n.tsched.statsFor(id).PipeGrants })
		tenant("dma_grants", "DMA engine slots granted to the tenant by the DRR scheduler", "grants", func() uint64 { return n.tsched.statsFor(id).DMAGrants })
		tenant("pipe_work_ns", "pipeline occupancy consumed by the tenant", "ns", func() uint64 { return uint64(n.tsched.statsFor(id).PipeWork / sim.Nanosecond) })
		tenant("dma_work_ns", "DMA engine occupancy consumed by the tenant", "ns", func() uint64 { return uint64(n.tsched.statsFor(id).DMAWork / sim.Nanosecond) })
		tenant("fifo_drops", "ingress frames dropped at the tenant's FIFO share", "frames", func() uint64 { return n.TenantDrops(id, RxFifo) })
		if n.fc != nil {
			fcTenant := func(pick func(FlowTenantStats) uint64) func() uint64 {
				return fcRead(func(f *FlowCache) uint64 {
					for _, st := range f.TenantStats() {
						if st.Tenant == id {
							return pick(st)
						}
					}
					return 0
				})
			}
			tenant("flowcache_hits", "flow-cache hits on the tenant's entries", "frames", fcTenant(func(st FlowTenantStats) uint64 { return st.Hits }))
			tenant("flowcache_denied", "flow-cache installs refused inside the tenant's partition", "entries", fcTenant(func(st FlowTenantStats) uint64 { return st.Denied }))
		}
		for reason := Reason(0); reason < NumReasons; reason++ {
			reason := reason
			tl["reason"] = reason.String()
			tenant("drops", "frames dropped on the tenant's account, by reason", "frames", func() uint64 { return n.TenantDrops(id, reason) })
		}
	}
}
