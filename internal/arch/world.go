package arch

import (
	"fmt"

	"norman/internal/cache"
	"norman/internal/kernel"
	"norman/internal/mem"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/telemetry"
	"norman/internal/timing"
)

// World is the simulated machine every architecture is built on: one host
// (cores, LLC, kernel control plane), one SmartNIC, and a wire whose far end
// the experiment supplies.
type World struct {
	Eng *sim.Engine
	// Model is the world's cost model. It is read-only once NewWorld returns:
	// the NIC and the kernel took their own copies there, and the host prices
	// below remember what they computed from it.
	Model timing.Model
	LLC   *cache.LLC
	Alloc *mem.Alloc
	Kern  *kernel.Kernel
	NIC   *nic.NIC
	// Frames is the world's free list of frames. UDPTo, UDPFrom and the
	// transport's segments and ACKs are built from it; the exits where a
	// frame's journey ends — the upcall, the wire peer, a NIC or host drop —
	// give the frame back (DESIGN.md §8, "who owns a frame").
	Frames *packet.Frames

	// Host addressing.
	HostMAC packet.MAC
	HostIP  packet.IPv4
	PeerMAC packet.MAC
	PeerIP  packet.IPv4

	// Peer receives frames that left on the wire, after propagation. The
	// experiment installs it (echo server, sink, traffic source...). It
	// borrows the frame for the duration of the call: the world recycles it
	// once Peer returns, so a peer that keeps the frame — or schedules work
	// that reads it later — keeps a Clone.
	Peer func(p *packet.Packet, at sim.Time)

	// Tracer is the packet-lifecycle tracer, nil unless EnableTracing was
	// called. When set, the NIC stamps trace IDs and every interposition
	// point appends a span event.
	Tracer *telemetry.Tracer

	cores     map[uint32]*sim.Server // per-process app cores
	kernCores []*sim.Server          // kernel / sidecar dataplane cores (softirq queues)
	pollers   map[*sim.Server]bool   // cores pinned at 100% by poll loops
	hopFree   *hop                   // free list of host-side event records (hop.go)
	host      *base                  // the architecture built on this world: its host ledger (exits.go)

	// The host's price list: Model.Cycles and Model.Copy of the small
	// arguments every packet asks for (ring bookkeeping, a descriptor line, a
	// header), each filled by the formula itself the first time. A zero slot
	// is an unfilled one.
	cyclePrices [64]sim.Duration
	copyPrices  [129]sim.Duration
}

// WorldConfig parameterizes NewWorld; zero values take defaults.
type WorldConfig struct {
	Model      timing.Model
	RingSize   int
	BufBytes   int
	SRAMBudget int
	NoLLC      bool // disable cache modeling (DDIO ablation)
	// KernQueues is the number of kernel/softirq cores (multi-queue RSS on
	// the kernel-stack architecture). 0 or 1 = single queue.
	KernQueues int
}

// NewWorld builds a fresh world.
func NewWorld(cfg WorldConfig) *World {
	if cfg.Model.CPUHz == 0 {
		cfg.Model = timing.Default()
	}
	eng := sim.NewEngine()
	var llc *cache.LLC
	if !cfg.NoLLC {
		llc = cache.New(cache.Config{
			TotalBytes: cfg.Model.LLCBytes,
			Ways:       cfg.Model.LLCWays,
			DDIOWays:   cfg.Model.DDIOWays,
			LineBytes:  64,
		})
	}
	alloc := mem.NewAlloc()
	frames := new(packet.Frames)
	nKern := cfg.KernQueues
	if nKern < 1 {
		nKern = 1
	}
	kernCores := make([]*sim.Server, nKern)
	for i := range kernCores {
		kernCores[i] = sim.NewServer(fmt.Sprintf("core.kernel%d", i))
	}
	w := &World{
		Eng:       eng,
		Model:     cfg.Model,
		LLC:       llc,
		Alloc:     alloc,
		Frames:    frames,
		Kern:      kernel.New(eng),
		HostMAC:   packet.MAC{0x02, 0, 0, 0, 0, 1},
		HostIP:    packet.MakeIP(10, 0, 0, 1),
		PeerMAC:   packet.MAC{0x02, 0, 0, 0, 0, 2},
		PeerIP:    packet.MakeIP(10, 0, 0, 2),
		cores:     map[uint32]*sim.Server{},
		kernCores: kernCores,
		pollers:   map[*sim.Server]bool{},
	}
	w.NIC = nic.New(nic.Config{
		Engine:     eng,
		Model:      cfg.Model,
		LLC:        llc,
		Alloc:      alloc,
		Frames:     frames,
		RingSize:   cfg.RingSize,
		BufBytes:   cfg.BufBytes,
		SRAMBudget: cfg.SRAMBudget,
	})
	return w
}

// priced returns cost(&w.Model, n), remembered in memo when n indexes it.
func (w *World) priced(memo []sim.Duration, n int, cost func(*timing.Model, int) sim.Duration) sim.Duration {
	if uint(n) >= uint(len(memo)) {
		return cost(&w.Model, n)
	}
	if memo[n] == 0 {
		memo[n] = cost(&w.Model, n)
	}
	return memo[n]
}

// cycles is Model.Cycles, remembered for small counts.
func (w *World) cycles(n int) sim.Duration {
	return w.priced(w.cyclePrices[:], n, (*timing.Model).Cycles)
}

// copyCost is Model.Copy, remembered for copies of up to two cache lines.
func (w *World) copyCost(n int) sim.Duration {
	return w.priced(w.copyPrices[:], n, (*timing.Model).Copy)
}

// Now returns the world's virtual time.
func (w *World) Now() sim.Time { return w.Eng.Now() }

// RunUntil advances the world through virtual time t.
func (w *World) RunUntil(t sim.Time) sim.Time { return w.Eng.RunUntil(t) }

// Drain runs the world until no event remains (in-flight DMA, deliveries,
// echoes) and returns the conservation verdict: nic.NIC.Balance for wire ↔
// ring, then the architecture's host law (exits.go) for ring ↔ application.
func (w *World) Drain() error {
	w.Eng.Run()
	if err := w.NIC.Balance(); err != nil {
		return err
	}
	return w.host.balance()
}

// EnableTracing attaches a packet-lifecycle tracer of the given span depth
// (<= 0 uses telemetry.DepthFromEnv) to the world and its NIC. Architectures
// that stamp packets on the host side consult w.Tracer directly.
func (w *World) EnableTracing(depth int) *telemetry.Tracer {
	if depth <= 0 {
		depth = telemetry.DepthFromEnv()
	}
	w.Tracer = telemetry.NewTracer(depth)
	w.NIC.SetTracer(w.Tracer)
	return w.Tracer
}

// RegisterMetrics exposes the world's host, simulator and memory counters —
// plus the NIC's dataplane counters and, when tracing is enabled, the
// tracer's own accounting — under one registry. Every metric carries the
// caller's labels (typically arch and experiment identity) so many worlds can
// share one registry without colliding.
func (w *World) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	r.Gauge(telemetry.Desc{Layer: "host", Name: "cpu_busy_seconds", Help: "total core-busy time across app and kernel cores (poll-pinned cores count as fully busy)", Unit: "seconds"},
		labels, func() float64 { return w.CPUBusy(w.Eng.Now()).Seconds() })
	r.Gauge(telemetry.Desc{Layer: "host", Name: "cores", Help: "app cores plus kernel dataplane cores in the world", Unit: "cores"},
		labels, func() float64 { return float64(len(w.cores) + len(w.kernCores)) })
	r.Counter(telemetry.Desc{Layer: "sim", Name: "events_fired", Help: "discrete events executed by this world's engine", Unit: "events"},
		labels, func() uint64 { return w.Eng.Fired() })
	r.Gauge(telemetry.Desc{Layer: "sim", Name: "virtual_time_seconds", Help: "current virtual clock of this world's engine", Unit: "seconds"},
		labels, func() float64 { return sim.Duration(w.Eng.Now()).Seconds() })
	r.Gauge(telemetry.Desc{Layer: "mem", Name: "alloc_used_bytes", Help: "high-water mark of the simulated host physical allocator", Unit: "bytes"},
		labels, func() float64 { return float64(w.Alloc.Used()) })
	w.NIC.RegisterMetrics(r, labels)
	w.host.registerMetrics(r, labels)
	if w.Tracer != nil {
		w.Tracer.RegisterMetrics(r, labels)
	}
}

// Core returns (creating if needed) the core a process runs on.
func (w *World) Core(pid uint32) *sim.Server {
	c, ok := w.cores[pid]
	if !ok {
		c = sim.NewServer("core.app")
		w.cores[pid] = c
	}
	return c
}

// KernCore returns the first kernel/sidecar dataplane core.
func (w *World) KernCore() *sim.Server { return w.kernCores[0] }

// KernCoreN returns the i'th kernel core (modulo the configured count).
func (w *World) KernCoreN(i int) *sim.Server {
	return w.kernCores[i%len(w.kernCores)]
}

// KernQueues returns the number of kernel cores.
func (w *World) KernQueues() int { return len(w.kernCores) }

// MarkPoller records that a core runs a poll loop and is therefore busy for
// the whole experiment regardless of Server-accounted work.
func (w *World) MarkPoller(c *sim.Server) { w.pollers[c] = true }

// UnmarkPoller removes poll-pinning from a core.
func (w *World) UnmarkPoller(c *sim.Server) { delete(w.pollers, c) }

// CPUBusy returns total core-busy time across app cores and the kernel
// core over [0, now]: poll-pinned cores count as fully busy, others by their
// accounted service time.
func (w *World) CPUBusy(now sim.Time) sim.Duration {
	var total sim.Duration
	add := func(c *sim.Server) {
		if w.pollers[c] {
			total += sim.Duration(now)
			return
		}
		total += c.BusyTime()
	}
	for _, c := range w.cores {
		add(c)
	}
	for _, c := range w.kernCores {
		add(c)
	}
	return total
}

// SendOnWire is what architectures hook to nic.NIC.OnTransmit: it applies
// wire propagation and hands the frame to the peer, whose return ends its
// journey (hop.go). With no peer the frame ends here.
func (w *World) SendOnWire(p *packet.Packet, at sim.Time) {
	if w.Peer == nil {
		w.Frames.Recycle(p)
		return
	}
	w.hop(at.Add(sim.Duration(w.Model.WireLatency)), hopWire, nil, nil, p)
}

// Flow builds the canonical local->remote UDP flow key for port pairs.
func (w *World) Flow(localPort, remotePort uint16) packet.FlowKey {
	return packet.FlowKey{
		Src: w.HostIP, Dst: w.PeerIP,
		SrcPort: localPort, DstPort: remotePort,
		Proto: packet.ProtoUDP,
	}
}

// UDPTo builds an outbound UDP packet on a flow, from the world's free list.
func (w *World) UDPTo(flow packet.FlowKey, payload int) *packet.Packet {
	return w.Frames.UDP(w.HostMAC, w.PeerMAC, flow.Src, flow.Dst, flow.SrcPort, flow.DstPort, payload)
}

// UDPFrom builds an inbound UDP packet for the reverse of a flow (a peer
// response), from the world's free list.
func (w *World) UDPFrom(flow packet.FlowKey, payload int) *packet.Packet {
	return w.Frames.UDP(w.PeerMAC, w.HostMAC, flow.Dst, flow.Src, flow.DstPort, flow.SrcPort, payload)
}
