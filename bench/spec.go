// Package bench is normbench, the repository's performance benchmark: four
// fixed-size workloads on the kopi architecture, measured on both of
// Norman's clocks — the modeled virtual-time clock (goodput, latency,
// delivery, CPU) and the simulator's host clock (ns, allocations and bytes
// per frame, live heap, set-up time) — end to end and layer by layer.
//
// The package drives only public functions of the packages under
// norman/internal; it changes nothing outside bench/. BENCHMARK.json at the
// repository root names the command, workloads and metrics; manifest.json in
// this directory records sizes, seeds, layers and the machine that produced
// the committed baseline. README.md is the glossary.
package bench

// MetricDef names one metric and its unit. Direction and regression bound
// live in BENCHMARK.json, the layer in manifest.json; TestNamesMatchBenchmarkJSON
// keeps the three in step.
type MetricDef struct {
	Name string
	Unit string
}

// EndToEnd lists the ten end-to-end metrics every workload reports with
// tracing off. host_* are simulator-clock numbers, model_* virtual-clock
// numbers; setup_s and host_ns_per_frame are at reference speed
// (reference.go).
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"host_ns_per_frame", "ns"},
	{"host_allocs_per_frame", "allocs"},
	{"host_bytes_per_frame", "B"},
	{"host_live_heap_mb", "MiB"},
	{"model_goodput_gbps", "Gbit/s"},
	{"model_lat_p50_us", "us"},
	{"model_lat_p99_us", "us"},
	{"model_delivered_pct", "%"},
	{"model_cpu_cores", "cores"},
}

// PerLayer lists the per-layer metrics of the traced run, grouped by the
// package (layer) they describe. Counts repeat exactly for a seed; probe.*
// are host ns/op and allocs/op of a layer's public functions in isolation;
// prof.* are CPU-profile shares; span.* come from harness spans; stage.*
// from the world's packet-lifecycle tracer.
var PerLayer = []MetricDef{
	// sim
	{"sim.events_per_frame", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.pending_mean", "count"},
	{"probe.sim.dispatch_ns", "ns"},
	{"probe.sim.dispatch_allocs", "allocs"},
	{"probe.sim.server_acquire_ns", "ns"},
	{"probe.sim.sharded_ns_per_event", "ns"},
	{"prof.sim_pct", "%"},
	// nic
	{"nic.rx_frames", "count"},
	{"nic.tx_frames", "count"},
	{"nic.drop_fifo", "count"},
	{"nic.drop_ring", "count"},
	{"nic.drop_verdict", "count"},
	{"nic.drop_nosteer", "count"},
	{"nic.shed", "count"},
	{"nic.flowcache_hit_pct", "%"},
	{"nic.flowcache_installs", "count"},
	{"nic.flowcache_evictions", "count"},
	{"nic.flowcache_invalidations", "count"},
	{"nic.tenant_pipe_wait_ns_per_frame", "ns"},
	{"nic.tenant_dma_wait_ns_per_frame", "ns"},
	{"nic.sram_used_kb", "KiB"},
	{"probe.nic.rx_ns", "ns"},
	{"probe.nic.rx_allocs", "allocs"},
	{"probe.nic.rx_sched_ns", "ns"},
	{"probe.nic.rx_sched_allocs", "allocs"},
	{"probe.nic.tx_ns", "ns"},
	{"probe.nic.tx_allocs", "allocs"},
	{"probe.nic.flowcache_lookup_ns", "ns"},
	{"probe.nic.flowcache_install_ns", "ns"},
	{"prof.nic_pct", "%"},
	// overlay
	{"overlay.runs_per_frame", "count"},
	{"overlay.cycles_per_frame", "count"},
	{"overlay.traps", "count"},
	{"probe.overlay.run_ns", "ns"},
	{"probe.overlay.run_allocs", "allocs"},
	{"probe.overlay.assemble_verify_us", "us"},
	{"prof.overlay_pct", "%"},
	// cache
	{"cache.accesses_per_frame", "count"},
	{"cache.dma_hit_pct", "%"},
	{"cache.cpu_hit_pct", "%"},
	{"cache.tenant_dma_hit_pct.victim", "%"},
	{"cache.tenant_dma_hit_pct.adversary", "%"},
	{"probe.cache.access_ns", "ns"},
	{"prof.cache_pct", "%"},
	// mem
	{"mem.ring_produced", "count"},
	{"mem.ring_dropped", "count"},
	{"mem.notify_pushed", "count"},
	{"mem.sim_alloc_used_mb", "MiB"},
	{"probe.mem.ring_pushpop_ns", "ns"},
	{"prof.mem_pct", "%"},
	// packet
	{"probe.packet.new_udp_ns", "ns"},
	{"probe.packet.new_udp_allocs", "allocs"},
	{"probe.packet.new_tcp_allocs", "allocs"},
	{"prof.packet_pct", "%"},
	// arch + kernel
	{"arch.app_core_busy_frac", "frac"},
	{"kernel.connects", "count"},
	{"span.connect_us_per_conn", "us"},
	{"prof.arch_pct", "%"},
	{"prof.kernel_pct", "%"},
	// transport
	{"transport.segments_sent", "count"},
	{"transport.retransmits", "count"},
	{"transport.fast_retransmits", "count"},
	{"transport.timeouts", "count"},
	{"transport.peer_acks", "count"},
	{"probe.transport.flyweight_rx_ns", "ns"},
	{"prof.transport_pct", "%"},
	// qos, filter, sniff
	{"qos.queue_depth_max", "count"},
	{"qos.dropped", "count"},
	{"probe.qos.wfq_enq_deq_ns", "ns"},
	{"span.install_rule_us", "us"},
	{"sniff.matched", "count"},
	{"prof.qos_pct", "%"},
	{"prof.filter_pct", "%"},
	// faults
	{"faults.wire_lost", "count"},
	{"faults.wire_corrupted", "count"},
	// Go runtime
	{"prof.runtime_malloc_pct", "%"},
	{"prof.runtime_gc_pct", "%"},
	{"host_gc_cycles", "count"},
	// harness
	{"prof.bench_pct", "%"},
	{"span.build_world_s", "s"},
	{"span.load_policy_s", "s"},
	{"span.run_s", "s"},
	{"span.drain_s", "s"},
	{"span.collect_s", "s"},
	{"telemetry.trace_overhead_pct", "%"},
	{"host.raw_ns_per_frame", "ns"},
	{"host.reference_ns_per_op", "ns"},
	// modeled stages
	{"stage.rx.wire_to_pipeline_ns", "ns"},
	{"stage.rx.pipeline_to_ring_ns", "ns"},
	{"stage.rx.ring_to_app_ns", "ns"},
	{"stage.tx.send_to_ring_ns", "ns"},
	{"stage.tx.ring_to_pipeline_ns", "ns"},
	{"stage.tx.pipeline_to_wire_ns", "ns"},
	{"stage.sum_residual_pct", "%"},
}

// Spec is one workload: its name, why it exists, and its fixed size. Work
// per repeat is fixed here and recorded in manifest.json — never calibrated
// at run time; only the number of repeats follows the time budget.
type Spec struct {
	Name string
	Why  string
	// Loop states the load model: rx workloads are open loops in virtual
	// time (the generator fires on its own event schedule, so it is never
	// late by construction); tx_stream_churn is a closed loop of clients.
	Loop string
	// Frames is the number of frames offered per repeat (rx workloads).
	Frames int
	// Transfers is the number of transfers attempted per repeat
	// (tx_stream_churn).
	Transfers int

	build func(sp Spec, seed int64, rec *spanRec, traced bool) (world, error)
}

// Workloads is the fixed workload set, in BENCHMARK.json order.
var Workloads = []Spec{
	{
		Name:   "rx_fastpath",
		Why:    "256 established UDP flows through a cacheable ACL: >99% flow-cache hits, so sim, nic rx, mem rings and packet do the host work and overlay does none",
		Loop:   "open",
		Frames: 600_000,
		build:  buildRx,
	},
	{
		Name:   "rx_slowpath",
		Why:    "same world and traffic as rx_fastpath but the chain adds lookup+update, which the flow cache refuses: every frame runs overlay.Machine.Run",
		Loop:   "open",
		Frames: 600_000,
		build:  buildRx,
	},
	{
		Name:   "tenant_cliff",
		Why:    "victim beside a 4096-flow adversary past the DDIO cliff on the tenant-scheduled datapath: LLC misses, DMA waits and typed FIFO/ring drops set goodput and loss",
		Loop:   "open",
		Frames: 600_000,
		build:  buildRx,
	},
	{
		Name:      "tx_stream_churn",
		Why:       "64 closed-loop clients Connect, Stream, Close over a lossy wire: the only workload through tx drain, qos, filter, sniff, transport and mid-run connection churn",
		Loop:      "closed",
		Transfers: 4096,
		build:     buildTx,
	},
}

// SpecByName returns the named workload.
func SpecByName(name string) (Spec, bool) {
	for _, sp := range Workloads {
		if sp.Name == name {
			return sp, true
		}
	}
	return Spec{}, false
}

// Scaled returns the workload at a fraction of its fixed size — the
// self-test's tiny runs. Committed numbers always use the full size.
func (sp Spec) Scaled(f float64) Spec {
	sp.Frames = int(float64(sp.Frames) * f)
	sp.Transfers = int(float64(sp.Transfers) * f)
	return sp
}
