package bench

import (
	"runtime"
	"sort"
	"time"

	"norman/internal/cache"
	"norman/internal/mem"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/timing"
	"norman/internal/transport"
)

// probeInputs is what a workload hands the probes: its own program, key
// set, address footprint and geometry, plus the event-heap depth it ran at.
type probeInputs struct {
	prog       *overlay.Program
	progSource string
	flows      []packet.FlowKey
	ringAddrs  []uint64
	ringSize   int
	sched      bool // tenant-scheduled datapath (tenant_cliff)
	tx         bool // transmit workload (tx_stream_churn)
	model      timing.Model
	heapDepth  int
}

// probe times one layer's public functions in isolation. Probes are
// per-layer numbers only — never gates.
type probe struct {
	// ns and allocs name the metrics the probe fills ("" = not reported).
	ns, allocs string
	applies    func(in probeInputs) bool
	// prepare builds the probe's state and returns op, which performs n
	// operations.
	prepare func(in probeInputs) (op func(n int))
	batch   int
	// scale converts ns/op into the metric's unit (0 or 1 = ns, 1e-3 = µs).
	scale float64
}

func always(probeInputs) bool { return true }

// Addresses of the frames the probes build (the world's own defaults).
var hostMAC, peerMAC = packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}

var probes = []probe{
	{ns: "probe.sim.dispatch_ns", allocs: "probe.sim.dispatch_allocs", applies: always, prepare: prepDispatch, batch: 100_000},
	{ns: "probe.sim.server_acquire_ns", applies: always, prepare: prepServer, batch: 500_000},
	{ns: "probe.sim.sharded_ns_per_event", applies: always, prepare: prepSharded, batch: 1_000_000},
	{ns: "probe.nic.rx_ns", allocs: "probe.nic.rx_allocs", batch: 10_000,
		applies: func(in probeInputs) bool { return !in.sched && !in.tx }, prepare: prepNICRx},
	{ns: "probe.nic.rx_sched_ns", allocs: "probe.nic.rx_sched_allocs", batch: 10_000,
		applies: func(in probeInputs) bool { return in.sched }, prepare: prepNICRx},
	{ns: "probe.nic.tx_ns", allocs: "probe.nic.tx_allocs", batch: 10_000,
		applies: func(in probeInputs) bool { return in.tx }, prepare: prepNICTx},
	{ns: "probe.nic.flowcache_lookup_ns", batch: 200_000,
		applies: func(in probeInputs) bool { return !in.sched }, prepare: prepFlowCacheLookup},
	{ns: "probe.nic.flowcache_install_ns", batch: 100_000,
		applies: func(in probeInputs) bool { return !in.sched }, prepare: prepFlowCacheInstall},
	{ns: "probe.overlay.run_ns", allocs: "probe.overlay.run_allocs", batch: 50_000,
		applies: func(in probeInputs) bool { return in.prog != nil }, prepare: prepOverlayRun},
	{ns: "probe.overlay.assemble_verify_us", batch: 100, scale: 1e-3,
		applies: func(in probeInputs) bool { return in.progSource != "" }, prepare: prepAssemble},
	{ns: "probe.cache.access_ns", batch: 200_000,
		applies: func(in probeInputs) bool { return len(in.ringAddrs) > 0 }, prepare: prepCache},
	{ns: "probe.mem.ring_pushpop_ns", applies: always, prepare: prepRing, batch: 500_000},
	{ns: "probe.packet.new_udp_ns", allocs: "probe.packet.new_udp_allocs", applies: always, prepare: prepNewUDP, batch: 100_000},
	{allocs: "probe.packet.new_tcp_allocs", applies: always, prepare: prepNewTCP, batch: 100_000},
	{ns: "probe.transport.flyweight_rx_ns", batch: 500_000,
		applies: func(in probeInputs) bool { return in.tx }, prepare: prepFlyweight},
	{ns: "probe.qos.wfq_enq_deq_ns", batch: 50_000,
		applies: func(in probeInputs) bool { return in.tx }, prepare: prepWFQ},
}

// runProbes runs every applicable probe for an equal share of the budget
// and stores ns/op (median over batches) and allocs/op into out.
func runProbes(in probeInputs, budget time.Duration, out map[string]float64) {
	var todo []probe
	for _, p := range probes {
		if p.applies(in) {
			todo = append(todo, p)
		}
	}
	each := budget / time.Duration(len(todo))
	for _, p := range todo {
		op := p.prepare(in)
		op(p.batch / 10) // warm caches and lazily grown state
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var perOp []float64
		ops := 0
		for start := time.Now(); len(perOp) < 3 || time.Since(start) < each; {
			t0 := time.Now()
			op(p.batch)
			perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(p.batch))
			ops += p.batch
		}
		runtime.ReadMemStats(&ms1)
		sort.Float64s(perOp)
		scale := p.scale
		if scale == 0 {
			scale = 1
		}
		if p.ns != "" {
			out[p.ns] = perOp[len(perOp)/2] * scale
		}
		if p.allocs != "" {
			out[p.allocs] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
		}
	}
}

// prepDispatch times Engine.After + dispatch with the heap held at the
// workload's mean depth by far-future events that never fire.
func prepDispatch(in probeInputs) func(int) {
	eng := sim.NewEngine()
	for i := 0; i < in.heapDepth; i++ {
		eng.At(sim.Time(1<<60)+sim.Time(i), func() {})
	}
	return func(n int) {
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				eng.After(sim.Nanosecond, fire)
			} else {
				eng.Stop()
			}
		}
		eng.After(sim.Nanosecond, fire)
		eng.Run()
	}
}

func prepServer(probeInputs) func(int) {
	s := sim.NewServer("probe")
	var now sim.Time
	return func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(10 * sim.Nanosecond)
			s.Acquire(now, 12*sim.Nanosecond)
		}
	}
}

// prepSharded times the sharded engine's batched drain path: 2 lockstep
// shards, each draining 256-descriptor bursts into flyweight records and
// crediting the engine per descriptor (kopibench's geometry at this box's
// core count).
func prepSharded(probeInputs) func(int) {
	const shards, burst = 2, 256
	return func(n int) {
		quota := n/shards + 1
		s := sim.NewSharded(shards, shards, 2*sim.Microsecond)
		for sh := 0; sh < shards; sh++ {
			eng := s.Engine(sh)
			ring := mem.NewBurstRing(8*burst, 0)
			slab := mem.NewConnSlab(1024, 0)
			scratch := make([]mem.PktRef, burst)
			for i := 0; i < burst; i++ {
				ring.Push(mem.PktRef{Conn: uint32(i % 1024), Len: smallFrame})
			}
			done := 0
			var drain func()
			drain = func() {
				m := ring.PopBurst(scratch)
				for i := range scratch[:m] {
					d := &scratch[i]
					slab.RxPkts[d.Conn]++
					slab.RxBytes[d.Conn] += uint64(d.Len)
				}
				ring.PushBurst(scratch[:m])
				eng.AddFired(m - 1)
				if done += m; done < quota {
					eng.After(100*sim.Nanosecond, drain)
				}
			}
			eng.At(0, drain)
		}
		s.Run()
	}
}

// probeNIC builds a bare NIC — no arch, kernel or host layer above it —
// with one connection per workload flow and the workload's program, flow
// cache and tenant configuration.
func probeNIC(in probeInputs) (*sim.Engine, *nic.NIC, []*nic.Conn) {
	eng := sim.NewEngine()
	m := in.model
	llc := cache.New(cache.Config{TotalBytes: m.LLCBytes, Ways: m.LLCWays, DDIOWays: m.DDIOWays, LineBytes: 64})
	n := nic.New(nic.Config{Engine: eng, Model: m, LLC: llc, RingSize: in.ringSize})
	if in.sched {
		n.SetTenantScheduler(map[uint32]int{victimTenant: 7, adversaryTenant: 1})
		if err := llc.PartitionDDIO(map[uint32]int{victimTenant: 1, adversaryTenant: 1}); err != nil {
			panic(err)
		}
	} else if err := n.EnableFlowCache(flowCacheSize); err != nil {
		panic(err)
	}
	if in.prog != nil {
		dir := nic.Ingress
		if in.tx {
			dir = nic.Egress
		}
		if _, _, err := n.LoadProgram(dir, in.prog); err != nil {
			panic(err)
		}
	}
	conns := make([]*nic.Conn, len(in.flows))
	for i, f := range in.flows {
		meta := packet.Meta{UID: victimUID, ConnID: uint64(i + 1), Tenant: victimTenant, TrustedMeta: true}
		if in.sched && i >= cliffVictimFlows {
			meta.UID, meta.Tenant = adversaryUID, adversaryTenant
		}
		c, err := n.OpenConn(uint64(i+1), meta, nil)
		if err == nil {
			err = n.SteerFlow(f, c.ID)
		}
		if err != nil {
			panic(err)
		}
		conns[i] = c
	}
	return eng, n, conns
}

// prepNICRx times the NIC receive datapath (DeliverFromWire → pipeline →
// DMA → ring) on a paced arrival schedule, the application reduced to a
// ring pop.
func prepNICRx(in probeInputs) func(int) {
	eng, n, _ := probeNIC(in)
	n.OnRxDeliver = func(c *nic.Conn, _ sim.Time) { _, _ = c.RX.Pop() }
	gap := 100 * sim.Nanosecond
	if in.sched {
		gap = 250 * sim.Nanosecond // past the cliff the DMA engine is the bottleneck
	}
	next := 0
	return func(count int) {
		left := count
		var tick func()
		tick = func() {
			f := in.flows[next%len(in.flows)]
			payload := smallPayload
			if in.sched && next%len(in.flows) >= cliffVictimFlows {
				payload = largePayload
			}
			next++
			n.DeliverFromWire(packet.NewUDP(peerMAC, hostMAC, f.Dst, f.Src, f.DstPort, f.SrcPort, payload))
			if left--; left > 0 {
				eng.After(gap, tick)
			}
		}
		eng.After(gap, tick)
		eng.Run()
	}
}

// prepNICTx times the NIC transmit datapath (doorbell → descriptor fetch →
// egress chain → wire) with the workload's compiled egress program.
func prepNICTx(in probeInputs) func(int) {
	eng, n, conns := probeNIC(in)
	n.OnTransmit = func(*packet.Packet, sim.Time) {}
	next := 0
	return func(count int) {
		left := count
		var tick func()
		tick = func() {
			i := next % len(conns)
			next++
			f, c := in.flows[i], conns[i]
			p := packet.NewTCP(hostMAC, peerMAC, f.Src, f.Dst, f.SrcPort, f.DstPort, packet.TCPPsh, transport.MSS)
			if c.TX.Push(mem.Desc{Pkt: p, Produced: eng.Now()}) == nil {
				n.DoorbellTx(c)
			}
			if left--; left > 0 {
				eng.After(150*sim.Nanosecond, tick)
			}
		}
		eng.After(150*sim.Nanosecond, tick)
		eng.Run()
	}
}

// probeFlowCache returns a flow cache holding the workload's inbound keys.
func probeFlowCache(in probeInputs) (*nic.FlowCache, []packet.FlowKey) {
	n := nic.New(nic.Config{Engine: sim.NewEngine(), Model: in.model})
	if err := n.EnableFlowCache(flowCacheSize); err != nil {
		panic(err)
	}
	fc := n.FlowCache()
	keys := make([]packet.FlowKey, len(in.flows))
	for i, f := range in.flows {
		keys[i] = f.Reverse() // what an inbound frame of the flow parses to
		fc.Install(keys[i], uint64(i+1), victimTenant, overlay.VerdictPass, 7, 0)
	}
	return fc, keys
}

func prepFlowCacheLookup(in probeInputs) func(int) {
	fc, keys := probeFlowCache(in)
	return func(n int) {
		for i := 0; i < n; i++ {
			fc.Lookup(keys[i%len(keys)])
		}
	}
}

// prepFlowCacheInstall cycles through four times the cache's capacity in
// distinct keys, so installs evict as a short-flow churn would.
func prepFlowCacheInstall(in probeInputs) func(int) {
	fc, keys := probeFlowCache(in)
	span := 4 * fc.Capacity()
	next := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			k := keys[next%len(keys)]
			k.SrcPort = uint16(next % span)
			next++
			fc.Install(k, 1, victimTenant, overlay.VerdictPass, 7, 0)
		}
	}
}

func prepOverlayRun(in probeInputs) func(int) {
	m := overlay.NewMachine(in.prog)
	pkts := make([]*packet.Packet, len(in.flows))
	for i, f := range in.flows {
		if in.tx {
			pkts[i] = packet.NewTCP(hostMAC, peerMAC, f.Src, f.Dst, f.SrcPort, f.DstPort, packet.TCPPsh, transport.MSS)
		} else {
			pkts[i] = packet.NewUDP(peerMAC, hostMAC, f.Dst, f.Src, f.DstPort, f.SrcPort, smallPayload)
		}
		pkts[i].Meta = packet.Meta{UID: victimUID, TrustedMeta: true}
	}
	env := overlay.NopEnv{}
	return func(n int) {
		for i := 0; i < n; i++ {
			_, _, _ = m.Run(pkts[i%len(pkts)], env)
		}
	}
}

func prepAssemble(in probeInputs) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, err := overlay.Assemble("probe", in.progSource); err != nil {
				panic(err)
			}
		}
	}
}

// prepCache walks the workload's descriptor lines the way the DMA engine
// does: round-robin over rings, one slot further on each visit.
func prepCache(in probeInputs) func(int) {
	m := in.model
	llc := cache.New(cache.Config{TotalBytes: m.LLCBytes, Ways: m.LLCWays, DDIOWays: m.DDIOWays, LineBytes: 64})
	if in.sched {
		if err := llc.PartitionDDIO(map[uint32]int{victimTenant: 1, adversaryTenant: 1}); err != nil {
			panic(err)
		}
	}
	next := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			ring := next % len(in.ringAddrs)
			slot := (next / len(in.ringAddrs)) % in.ringSize
			next++
			addr := in.ringAddrs[ring] + uint64(slot)*64
			switch {
			case !in.sched:
				llc.DMAAccess(addr)
			case ring < cliffVictimFlows:
				llc.DMAAccessTenant(addr, victimTenant)
			default:
				llc.DMAAccessTenant(addr, adversaryTenant)
			}
		}
	}
}

func prepRing(in probeInputs) func(int) {
	r := mem.NewRing(in.ringSize, 0)
	p := &packet.Packet{}
	return func(n int) {
		for i := 0; i < n; i++ {
			_ = r.Push(mem.Desc{Pkt: p})
			_, _ = r.Pop()
		}
	}
}

// sink keeps the packet constructors' results alive so the compiler cannot
// elide the allocation being measured.
var sink *packet.Packet

func prepNewUDP(probeInputs) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			sink = packet.NewUDP(peerMAC, hostMAC, 1, 2, 3, 4, smallPayload)
		}
	}
}

func prepNewTCP(probeInputs) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			sink = packet.NewTCP(peerMAC, hostMAC, 1, 2, 3, 4, packet.TCPAck, 0)
		}
	}
}

func prepFlyweight(probeInputs) func(int) {
	const conns = 1024
	slab := mem.NewConnSlab(conns, 0)
	for i := 0; i < conns; i++ {
		transport.FlyweightOpen(slab, i, uint16(i%64), 1)
	}
	seq := make([]uint32, conns)
	return func(n int) {
		for i := 0; i < n; i++ {
			id := i % conns
			transport.FlyweightRx(slab, id, seq[id], transport.MSS, sim.Time(i))
			seq[id]++
		}
	}
}

// prepWFQ times one enqueue+dequeue on the workload's qdisc shape: four uid
// classes weighted 3:1:1:1, standing queue of 64 packets.
func prepWFQ(probeInputs) func(int) {
	q := qos.NewWFQ(4096)
	q.SetWeight(1001, 3)
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = packet.NewTCP(packet.MAC{}, packet.MAC{}, 1, 2, 3, 4, packet.TCPPsh, transport.MSS)
		pkts[i].Meta.Class = uint32(1001 + i%txUsers)
		q.Enqueue(pkts[i], 0)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if p, ok := q.Dequeue(0); ok {
				q.Enqueue(p, 0)
			}
		}
	}
}
