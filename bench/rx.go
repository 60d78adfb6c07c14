package bench

import (
	"fmt"
	"strings"

	"norman/internal/arch"
	"norman/internal/kernel"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

// Tenant and user identities of tenant_cliff (E13's, as a fixed point).
const (
	victimUID       = 101
	adversaryUID    = 202
	victimTenant    = 1
	adversaryTenant = 2
)

// Traffic shape shared by the rx workloads: the small-frame class is 256 B
// payload (298 B frames); tenant_cliff's adversary sends 1460 B (1502 B).
const (
	smallPayload = 256
	smallFrame   = smallPayload + 42
	largePayload = 1460
	largeFrame   = largePayload + 42

	rxFlows       = 256
	rxGbps        = 25.0
	rxProcs       = 2
	flowCacheSize = 1024
	// rxRing keeps the 256 rings' descriptor lines (2 MiB) inside the
	// default model's 4 MiB DDIO share: these two workloads sit before the
	// cliff, tenant_cliff beyond it.
	rxRing = 128

	cliffVictimFlows = 64
	cliffVictimGbps  = 12.5
	cliffAdvFlows    = 4096
	cliffAdvGbps     = 85.0
	cliffRing        = 16
)

// warmupSlowdown stretches inter-arrivals during the warm-up quarter.
const warmupSlowdown = 4

// aclRules is the length of the ingress port blocklist: 31 compares plus the
// field load, mark rewrite and pass make a 35-cycle chain.
const aclRules = 31

// aclSource is rx_fastpath's cacheable ingress chain: a port blocklist no
// frame matches, a mark rewrite, pass. With perFlowState it gains a table
// lookup and a per-flow update, which the flow cache refuses to memoize —
// the one property rx_slowpath differs in.
func aclSource(perFlowState bool) string {
	var b strings.Builder
	if perFlowState {
		b.WriteString(".table seen 4096\n")
	}
	b.WriteString("ldf r0, dst_port\n")
	for i := 0; i < aclRules; i++ {
		fmt.Fprintf(&b, "jeq r0, %d, blocked\n", 9000+i)
	}
	if perFlowState {
		b.WriteString("ldf r3, src_port\nshl r3, 16\nor r3, r0\n")
		b.WriteString("lookup r4, seen, r3, first\n")
		b.WriteString("add r4, 1\nupdate seen, r3, r4\njmp mark\n")
		b.WriteString("first:\nldi r4, 1\nupdate seen, r3, r4\n")
		b.WriteString("mark:\n")
	}
	b.WriteString("ldi r2, 7\nsetf mark, r2\npass\nblocked:\ndrop\n")
	return b.String()
}

// rxClass is one traffic class of an rx workload: its flows, payload and
// share of the offered frames.
type rxClass struct {
	uid     uint32
	flows   []packet.FlowKey
	payload int
	share   float64 // fraction of offered frames

	offered, delivered uint64
	payloadInWindow    uint64
}

// rxWorld is an open-loop receive workload: one seeded Poisson generator
// offers exactly Spec.Frames frames from the wire. The generator runs on the
// engine's own event schedule, so it is never late by construction.
type rxWorld struct {
	sp   Spec
	a    arch.Arch
	w    *arch.World
	pids []uint32
	prog *overlay.Program
	// ringAddrs is the descriptor-line footprint the DMA engine walks.
	ringAddrs []uint64
	conns     []*arch.Conn

	arrive *sim.RNG // Poisson inter-arrivals
	pick   *sim.RNG // per-frame class and flow choice
	mean   sim.Duration
	tickFn func()

	classes []rxClass
	// latClass is the class whose deliveries are timed: the victim on
	// tenant_cliff, the only class elsewhere.
	latClass uint32

	sent        int
	warm        bool
	tWarm, tEnd sim.Time
	lat         []int64
	pendingSum  uint64
	pendingN    uint64
	// tracedLat collects harness-side latencies by trace ID on the traced
	// repeat, for the stage-sum cross-check.
	tracedLat *latRing
}

func (x *rxWorld) arch() arch.Arch { return x.a }

func (x *rxWorld) harnessLatencies() (*latRing, bool) { return x.tracedLat, false }

// buildRx builds rx_fastpath, rx_slowpath or tenant_cliff.
func buildRx(sp Spec, seed int64, rec *spanRec, traced bool) (world, error) {
	cliff := sp.Name == "tenant_cliff"
	id := rec.begin("arch.New")
	cfg := arch.WorldConfig{Model: timing.Default()}
	if cliff {
		cfg.Model.DDIOWays = 2
		cfg.Model.LLCBytes = 8 << 20
		cfg.RingSize = cliffRing
	} else {
		cfg.RingSize = rxRing
	}
	a := arch.New("kopi", cfg)
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}
	if traced {
		w.EnableTracing(traceDepth)
	}
	rec.end(id)

	x := &rxWorld{
		sp: sp, a: a, w: w,
		arrive: sim.NewRNG(seed, "normbench.arrivals."+sp.Name),
		pick:   sim.NewRNG(seed, "normbench.flows."+sp.Name),
	}
	if traced {
		x.tracedLat = new(latRing)
	}
	x.tickFn = x.tick

	id = rec.begin("load_policy")
	var procs [][]*kernel.Process // per class
	if cliff {
		vu := w.Kern.AddUser(victimUID, "victim")
		au := w.Kern.AddUser(adversaryUID, "adversary")
		w.Kern.AssignTenant(victimUID, victimTenant)
		w.Kern.AssignTenant(adversaryUID, adversaryTenant)
		procs = [][]*kernel.Process{
			{w.Kern.Spawn(vu.UID, "victim-svc")},
			{w.Kern.Spawn(au.UID, "adv-svc")},
		}
		w.NIC.SetTenantScheduler(map[uint32]int{victimTenant: 7, adversaryTenant: 1})
		if err := w.LLC.PartitionDDIO(map[uint32]int{victimTenant: 1, adversaryTenant: 1}); err != nil {
			return nil, fmt.Errorf("partition DDIO: %w", err)
		}
		vpps := cliffVictimGbps / smallFrame
		apps := cliffAdvGbps / largeFrame
		x.classes = []rxClass{
			{uid: victimUID, payload: smallPayload, share: vpps / (vpps + apps), flows: make([]packet.FlowKey, cliffVictimFlows)},
			{uid: adversaryUID, payload: largePayload, share: apps / (vpps + apps), flows: make([]packet.FlowKey, cliffAdvFlows)},
		}
		x.latClass = victimUID
		x.mean = sim.Duration(float64(sim.Second) / ((vpps + apps) * 1e9 / 8))
	} else {
		u := w.Kern.AddUser(victimUID, "svc")
		ps := make([]*kernel.Process, rxProcs)
		for i := range ps {
			ps[i] = w.Kern.Spawn(u.UID, fmt.Sprintf("svc-%d", i))
		}
		procs = [][]*kernel.Process{ps}
		if err := w.NIC.EnableFlowCache(flowCacheSize); err != nil {
			return nil, fmt.Errorf("enable flow cache: %w", err)
		}
		prog, err := overlay.Assemble("normbench-acl", aclSource(sp.Name == "rx_slowpath"))
		if err != nil {
			return nil, fmt.Errorf("assemble: %w", err)
		}
		if _, _, err := w.NIC.LoadProgram(nic.Ingress, prog); err != nil {
			return nil, fmt.Errorf("load program: %w", err)
		}
		x.prog = prog
		x.classes = []rxClass{{uid: victimUID, payload: smallPayload, share: 1, flows: make([]packet.FlowKey, rxFlows)}}
		x.latClass = victimUID
		x.mean = sim.Duration(float64(sim.Second) / (rxGbps / smallFrame * 1e9 / 8))
	}
	rec.end(id)

	// The seed permutes which ports each flow gets, so steering-table and
	// flow-cache bucket placement differ between seeds.
	ports := sim.NewRNG(seed, "normbench.ports."+sp.Name).Perm(1 << 14)
	next := 0
	id = rec.begin("connect_all")
	for ci := range x.classes {
		cl := &x.classes[ci]
		for i := range cl.flows {
			k := ports[next]
			next++
			flow := w.Flow(uint16(2000+k>>9), uint16(6000+k&511))
			cl.flows[i] = flow
			proc := procs[ci][i%len(procs[ci])]
			cid := rec.begin("Connect")
			c, err := a.Connect(proc, flow)
			rec.end(cid)
			if err != nil {
				return nil, fmt.Errorf("connect %s: %w", flow, err)
			}
			x.conns = append(x.conns, c)
			x.ringAddrs = append(x.ringAddrs, c.NC.RX.SlotAddr(0))
		}
	}
	rec.end(id)
	for _, ps := range procs {
		for _, p := range ps {
			x.pids = append(x.pids, p.PID)
		}
	}

	x.lat = make([]int64, 0, sp.Frames)
	a.SetDeliver(x.deliver)
	return x, nil
}

func (x *rxWorld) tick() {
	eng := x.w.Eng
	now := eng.Now()
	if x.sent == x.sp.Frames/4 {
		x.warm, x.tWarm = true, now
	}
	cl := &x.classes[0]
	if len(x.classes) > 1 && x.pick.Float64() >= cl.share {
		cl = &x.classes[1]
	}
	flow := cl.flows[x.pick.Intn(len(cl.flows))]
	cl.offered++
	x.sent++
	if x.sent&63 == 0 {
		x.pendingSum += uint64(eng.Pending())
		x.pendingN++
	}
	x.a.DeliverWire(x.w.UDPFrom(flow, cl.payload))
	switch {
	case x.sent < x.sp.Frames/4:
		// The warm-up quarter arrives at a quarter of the rate: every ring
		// slot and flow-cache entry is touched once without the cold-start
		// misses overloading the DMA engine. Statistics start after it.
		eng.After(x.arrive.Exp(warmupSlowdown*x.mean), x.tickFn)
	case x.sent < x.sp.Frames:
		eng.After(x.arrive.Exp(x.mean), x.tickFn)
	default:
		x.tEnd = now
	}
}

func (x *rxWorld) deliver(c *arch.Conn, p *packet.Packet, at sim.Time) {
	cl := &x.classes[0]
	if c.Info.UID != cl.uid {
		cl = &x.classes[1]
	}
	cl.delivered++
	if !x.warm || (x.tEnd != 0 && at > x.tEnd) {
		return
	}
	cl.payloadInWindow += uint64(p.PayloadLen)
	if cl.uid == x.latClass {
		d := int64(at.Sub(p.Meta.Enqueued))
		x.lat = append(x.lat, d)
		x.tracedLat.put(p.Meta.Trace, d)
	}
}

func (x *rxWorld) run(rec *spanRec) {
	eng := x.w.Eng
	eng.At(0, x.tickFn)
	id := rec.begin("RunUntil")
	n := sim.Duration(x.sp.Frames)
	eng.RunUntil(sim.Time(x.mean * (n/4*warmupSlowdown + n - n/4))) // the generator's expected end
	rec.end(id)
	id = rec.begin("drain")
	eng.Run()
	rec.end(id)
}

func (x *rxWorld) collect() (modelResult, counts, error) {
	n := x.w.NIC
	var res modelResult
	c := counts{}
	h := newFNV()

	var offered, delivered, payload uint64
	for i := range x.classes {
		cl := &x.classes[i]
		offered += cl.offered
		delivered += cl.delivered
		payload += cl.payloadInWindow
		h.add(cl.offered, cl.delivered, cl.payloadInWindow)
	}
	if offered != uint64(x.sp.Frames) || n.RxWire != offered {
		return res, nil, fmt.Errorf("offered %d frames (NIC saw %d), workload size is %d", offered, n.RxWire, x.sp.Frames)
	}
	if drops := rxTypedDrops(n); offered != delivered+drops {
		return res, nil, fmt.Errorf("silent loss: offered %d != delivered %d + typed drops %d", offered, delivered, drops)
	}
	if err := checkFlowCacheLedger(n); err != nil {
		return res, nil, err
	}

	res.Frames = offered
	res.Ops, res.FailedOps = offered, offered-delivered
	if len(x.classes) > 1 {
		v := &x.classes[0]
		res.Ops, res.FailedOps = v.offered, v.offered-v.delivered
	}
	window := x.tEnd.Sub(x.tWarm)
	res.GoodputGbps = float64(payload) * 8 / window.Seconds() / 1e9
	var latSum uint64
	res.LatP50us, res.LatP99us, latSum = latencyStats(x.lat)
	res.LatSamples = len(x.lat)
	res.DeliveredPct = pct(delivered, offered)
	res.CPUCores = cpuCores(x.w)
	h.add(latSum, uint64(len(x.lat)), uint64(x.tWarm), uint64(x.tEnd))

	worldCounts(x.w, offered, x.pendingSum, x.pendingN, x.pids, c, &h)
	c["kernel.connects"] = float64(len(x.conns))
	var produced, dropped uint64
	for _, cn := range x.conns {
		p, _, d := cn.NC.RX.Counters()
		produced, dropped = produced+p, dropped+d
	}
	c["mem.ring_produced"] = float64(produced)
	c["mem.ring_dropped"] = float64(dropped)
	var pushed uint64
	for _, pid := range x.pids {
		if p, ok := x.w.Kern.Process(pid); ok {
			np, _ := p.Queue.Counters()
			pushed += np
		}
	}
	c["mem.notify_pushed"] = float64(pushed)
	h.add(produced, dropped, pushed)
	res.Fingerprint = uint64(h)
	return res, c, nil
}

func (x *rxWorld) probeInputs() probeInputs {
	in := probeInputs{
		prog:      x.prog,
		ringAddrs: x.ringAddrs,
		sched:     len(x.classes) > 1,
		ringSize:  x.w.NIC.RingSize(),
		model:     x.w.Model,
	}
	if x.prog != nil {
		in.progSource = aclSource(x.sp.Name == "rx_slowpath")
	}
	for i := range x.classes {
		in.flows = append(in.flows, x.classes[i].flows...)
	}
	return in
}
