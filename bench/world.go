package bench

import (
	"fmt"
	"slices"

	"norman/internal/arch"
	"norman/internal/nic"
	"norman/internal/sim"
)

// world is one freshly built simulation: run drives it from the first
// generator tick until the engine has drained, collect checks its ledgers
// and reads the modeled results and layer counts.
type world interface {
	run(rec *spanRec)
	collect() (modelResult, counts, error)
	// arch exposes the built architecture to the traced run (tracer,
	// registry) and to probes that want the workload's own inputs.
	arch() arch.Arch
	// probeInputs hands the probes the workload's program, key set and
	// address footprint.
	probeInputs() probeInputs
	// harnessLatencies returns, by packet trace ID, the latency the harness
	// itself measured on the traced repeat, and whether they are transmit
	// latencies.
	harnessLatencies() (lat *latRing, tx bool)
}

// latRing remembers the harness-side latency of the most recently stamped
// packets by trace ID. The tracer issues IDs in sequence and retains the
// last traceDepth of them, so a ring indexed by ID modulo that depth holds
// exactly the packets whose journeys survive. A nil ring records nothing.
type latRing [traceDepth]struct {
	id  uint64
	lat int64
}

func (r *latRing) put(id uint64, lat int64) {
	if r != nil && id != 0 {
		r[id%traceDepth].id, r[id%traceDepth].lat = id, lat
	}
}

func (r *latRing) get(id uint64) (int64, bool) {
	e := r[id%traceDepth]
	return e.lat, e.id == id
}

// modelResult is what one repeat reports on the virtual clock. Every field
// is a pure function of the seed and the fixed size, so repeats of one seed
// must agree bit for bit (asserted by measure).
type modelResult struct {
	// Frames is the number of frames offered to the NIC in either
	// direction — the denominator of every per-frame metric.
	Frames uint64
	// Ops and FailedOps feed the failure-share rule: frames offered and
	// not delivered on the unloaded rx workloads, the victim's frames on
	// tenant_cliff (the adversary is overloaded by design and its typed
	// drops are reported through model_delivered_pct), transfers attempted
	// and aborted-or-unfinished on tx_stream_churn.
	Ops, FailedOps uint64

	GoodputGbps  float64
	LatP50us     float64
	LatP99us     float64
	LatSamples   int
	DeliveredPct float64
	CPUCores     float64

	// Fingerprint hashes every modeled counter, so a change meant only to
	// speed the simulator can show the model did not move. Event counts are
	// deliberately excluded: firing fewer events per frame is allowed.
	Fingerprint uint64
}

// counts holds the count-type per-layer metrics of one repeat, keyed by
// metric name.
type counts map[string]float64

// fnv accumulates a 64-bit FNV-1a hash over words.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(vs ...uint64) {
	x := uint64(*h)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			x ^= v & 0xff
			x *= 1099511628211
			v >>= 8
		}
	}
	*h = fnv(x)
}

// percentileUs returns the q-quantile of sorted picosecond samples in µs,
// by nearest rank.
func percentileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(sim.Microsecond)
}

// latencyStats sorts the samples and returns p50, p99 (µs) and their sum.
func latencyStats(samples []int64) (p50, p99 float64, sum uint64) {
	slices.Sort(samples)
	for _, s := range samples {
		sum += uint64(s)
	}
	return percentileUs(samples, 0.50), percentileUs(samples, 0.99), sum
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func perFrame(v float64, frames uint64) float64 {
	if frames == 0 {
		return 0
	}
	return v / float64(frames)
}

// rxTypedDrops sums every typed ingress drop counter of the NIC — the
// right-hand side of the zero-silent-loss ledger.
func rxTypedDrops(n *nic.NIC) uint64 {
	return n.RxDropNoSteer + n.RxDropRing + n.RxFifoDrop + n.RxDropVerdict +
		n.RxOutageDrop + n.RxShed + n.RxLinkDrop + n.RxPauseDrop
}

// checkFlowCacheLedger asserts Installs − Evictions − Invalidations == Len.
func checkFlowCacheLedger(n *nic.NIC) error {
	f := n.FlowCache()
	if f == nil {
		return nil
	}
	if live := int64(f.Installs) - int64(f.Evictions) - int64(f.Invalidations); live != int64(f.Len()) {
		return fmt.Errorf("flow-cache ledger: installs %d - evictions %d - invalidations %d = %d, live entries %d",
			f.Installs, f.Evictions, f.Invalidations, live, f.Len())
	}
	return nil
}

// worldCounts fills the layer counts every workload shares: sim, nic,
// overlay, cache, mem allocator and app-core utilisation. pids are the
// processes whose app cores the workload ran on.
func worldCounts(w *arch.World, frames uint64, pendingSum, pendingN uint64, pids []uint32, c counts, h *fnv) {
	n := w.NIC
	now := w.Eng.Now()

	c["sim.events_per_frame"] = perFrame(float64(w.Eng.Fired()), frames)
	if pendingN > 0 {
		c["sim.pending_mean"] = float64(pendingSum) / float64(pendingN)
	}

	c["nic.rx_frames"] = float64(n.RxWire)
	c["nic.tx_frames"] = float64(n.TxFrames)
	c["nic.drop_fifo"] = float64(n.RxFifoDrop)
	c["nic.drop_ring"] = float64(n.RxDropRing)
	c["nic.drop_verdict"] = float64(n.RxDropVerdict + n.TxDropVerdict)
	c["nic.drop_nosteer"] = float64(n.RxDropNoSteer)
	c["nic.shed"] = float64(n.RxShed)
	used, _ := n.SRAM()
	c["nic.sram_used_kb"] = float64(used) / 1024
	h.add(n.RxWire, n.TxFrames, n.TxBytes, n.RxFifoDrop, n.RxDropRing, n.RxDropVerdict,
		n.TxDropVerdict, n.RxDropNoSteer, n.RxShed, n.RxSlowPath, n.DMADescHit, n.DMADescMiss,
		n.TrapFallbacks, n.IngressProgCycles, uint64(used), uint64(now))

	if f := n.FlowCache(); f != nil {
		c["nic.flowcache_hit_pct"] = pct(f.Hits, n.RxWire)
		c["nic.flowcache_installs"] = float64(f.Installs)
		c["nic.flowcache_evictions"] = float64(f.Evictions)
		c["nic.flowcache_invalidations"] = float64(f.Invalidations)
		h.add(f.Hits, f.Misses, f.Installs, f.Evictions, f.Invalidations, uint64(f.Len()))
	}
	if ts := n.TenantScheduler(); ts != nil {
		var pipe, dma sim.Duration
		for _, st := range ts.Stats() {
			pipe += st.PipeWait
			dma += st.DMAWait
			h.add(uint64(st.Tenant), st.PipeGrants, st.DMAGrants, uint64(st.PipeWait), uint64(st.DMAWait), st.RxFifoDrops)
		}
		c["nic.tenant_pipe_wait_ns_per_frame"] = perFrame(pipe.Nanoseconds(), frames)
		c["nic.tenant_dma_wait_ns_per_frame"] = perFrame(dma.Nanoseconds(), frames)
	}

	var runs, cycles, traps uint64
	for _, dir := range []nic.Direction{nic.Ingress, nic.Egress} {
		if m := n.Machine(dir); m != nil {
			r, cy := m.Stats()
			runs, cycles, traps = runs+r, cycles+cy, traps+m.Traps()
		}
	}
	c["overlay.runs_per_frame"] = perFrame(float64(runs), frames)
	c["overlay.cycles_per_frame"] = perFrame(float64(cycles), frames)
	c["overlay.traps"] = float64(traps)
	h.add(runs, cycles, traps)

	if w.LLC != nil {
		ch, cm, dh, dm := w.LLC.Stats()
		c["cache.accesses_per_frame"] = perFrame(float64(ch+cm+dh+dm), frames)
		c["cache.dma_hit_pct"] = pct(dh, dh+dm)
		c["cache.cpu_hit_pct"] = pct(ch, ch+cm)
		h.add(ch, cm, dh, dm)
		for _, ts := range w.LLC.TenantDMAStats() {
			switch ts.Tenant {
			case victimTenant:
				c["cache.tenant_dma_hit_pct.victim"] = pct(ts.Hits, ts.Hits+ts.Misses)
			case adversaryTenant:
				c["cache.tenant_dma_hit_pct.adversary"] = pct(ts.Hits, ts.Hits+ts.Misses)
			}
		}
	}

	c["mem.sim_alloc_used_mb"] = float64(w.Alloc.Used()) / (1 << 20)
	h.add(w.Alloc.Used())

	var busy sim.Duration
	for _, pid := range pids {
		busy += w.Core(pid).BusyTime()
	}
	if now > 0 && len(pids) > 0 {
		c["arch.app_core_busy_frac"] = busy.Seconds() / (sim.Duration(now).Seconds() * float64(len(pids)))
	}
	h.add(uint64(busy), uint64(w.CPUBusy(now)))
}

// cpuCores is World.CPUBusy over the virtual duration: poll-pinned cores
// count in full, so this is the paper's CPU-efficiency column.
func cpuCores(w *arch.World) float64 {
	now := w.Eng.Now()
	if now <= 0 {
		return 0
	}
	return w.CPUBusy(now).Seconds() / sim.Duration(now).Seconds()
}
