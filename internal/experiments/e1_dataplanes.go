package experiments

import (
	"norman/internal/arch"
	"norman/internal/filter"
	"norman/internal/host"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/stats"
)

// E1Row is one architecture's dataplane cost profile.
type E1Row struct {
	Arch      string
	Transfers int

	ThrBareGbps   float64 // 1460B payload egress throughput, no policies
	ThrPolicyGbps float64 // same with 16 filter rules + WFQ installed
	Thr64Gbps     float64 // 64B payload egress throughput, no policies
	ThrRxGbps     float64 // 1460B inbound delivered to the application

	RTT50      sim.Duration // closed-loop echo median
	RTT99      sim.Duration
	CPUPerGbit float64 // core-seconds per gigabit moved (bare 1460B run)
}

// RunE1 reproduces the paper's data-movement argument (§1/§3): kernel bypass
// wins by eliminating transfers; KOPI interposes without giving that back.
// Expected shape: kernelstack ≪ sidecar < bypass ≈ hypervisor ≈ kopi, with
// the policy column costing kopi (and hypervisor) nothing and the software
// stacks real throughput.
func RunE1(scale Scale) ([]E1Row, *stats.Table) {
	// Each measurement builds a fresh world, so every (arch, metric) cell
	// is independent: fan all of them out; each task writes only its row's
	// fields.
	names := arch.Names()
	rows := make([]E1Row, len(names)+1)
	r := NewRunner()
	for i, name := range names {
		i, name := i, name
		row := &rows[i]
		row.Arch = name
		row.Transfers = arch.New(name, arch.WorldConfig{}).Caps().Transfers
		r.Go(func() {
			row.ThrBareGbps, row.CPUPerGbit = e1Throughput(arch.New(name, arch.WorldConfig{}), 1460, false, scale)
		})
		r.Go(func() { row.Thr64Gbps, _ = e1Throughput(arch.New(name, arch.WorldConfig{}), 64, false, scale) })
		r.Go(func() { row.ThrPolicyGbps, _ = e1Throughput(arch.New(name, arch.WorldConfig{}), 1460, true, scale) })
		r.Go(func() { row.ThrRxGbps = e1RxThroughput(arch.New(name, arch.WorldConfig{}), scale) })
		r.Go(func() { row.RTT50, row.RTT99 = e1RTT(arch.New(name, arch.WorldConfig{}), scale) })
	}
	// Sensitivity row: give the kernel stack four softirq queues (RSS
	// multi-queue) and a polling receiver — the fairest fight the kernel
	// can put up without rewriting its per-packet path. It narrows the RX
	// gap but does not close it: the per-packet stack cost just moves.
	mq := arch.WorldConfig{KernQueues: 4}
	row := &rows[len(names)]
	row.Arch = "kernelstack-4q"
	row.Transfers = 2
	r.Go(func() {
		row.ThrBareGbps, row.CPUPerGbit = e1Throughput(arch.New("kernelstack", mq), 1460, false, scale)
	})
	r.Go(func() { row.Thr64Gbps, _ = e1Throughput(arch.New("kernelstack", mq), 64, false, scale) })
	r.Go(func() { row.ThrPolicyGbps, _ = e1Throughput(arch.New("kernelstack", mq), 1460, true, scale) })
	r.Go(func() { row.ThrRxGbps = e1RxThroughputPolled(arch.New("kernelstack", mq), scale) })
	r.Go(func() { row.RTT50, row.RTT99 = e1RTT(arch.New("kernelstack", mq), scale) })
	r.Wait()

	t := stats.NewTable("E1: dataplane cost by architecture (single app)",
		"arch", "transfers", "tx1460(Gbps)", "tx+policy(Gbps)", "tx64(Gbps)",
		"rx1460(Gbps)", "rtt p50", "rtt p99", "core-s/Gbit")
	for _, r := range rows {
		t.AddRow(r.Arch, r.Transfers, r.ThrBareGbps, r.ThrPolicyGbps, r.Thr64Gbps,
			r.ThrRxGbps, r.RTT50.String(), r.RTT99.String(), r.CPUPerGbit)
	}
	return rows, t
}

// e1Throughput measures egress goodput at the peer sink under open-loop
// saturation, optionally with a representative policy set installed.
func e1Throughput(a arch.Arch, payload int, withPolicy bool, scale Scale) (gbps, cpuPerGbit float64) {
	w := a.World()
	sink := host.NewSinkPeer()
	w.Peer = sink.Recv

	alice := w.Kern.AddUser(1000, "alice")
	proc := w.Kern.Spawn(alice.UID, "blaster")
	flow := w.Flow(41000, 9)
	c, err := a.Connect(proc, flow)
	if err != nil {
		panic("e1: connect: " + err.Error())
	}

	if withPolicy {
		installE1Policies(a)
	}

	frame := packetFrameLen(payload)
	dur := scale.d(8 * sim.Millisecond)
	// Offer 140% of line rate so the bottleneck, wherever it is, saturates.
	s := &host.Sender{
		Arch: a, Conn: c, Flow: flow, Payload: payload,
		Interval: host.IntervalFor(140, frame),
		Until:    sim.Time(dur),
		Burst:    32,
	}
	s.Start(0)
	w.Eng.RunUntil(sim.Time(dur) + sim.Time(2*sim.Millisecond))
	gbps = sink.Gbps()
	busy := w.CPUBusy(w.Eng.Now())
	gbits := float64(sink.Bytes) * 8 / 1e9
	if gbits > 0 {
		cpuPerGbit = busy.Seconds() / gbits
	}
	balanced(w.Drain())
	return gbps, cpuPerGbit
}

// e1RxThroughput measures inbound goodput delivered to the application
// under line-rate offered load — the receive half of the data-movement
// argument (the kernel's softirq path is the bottleneck long before the
// wire is).
func e1RxThroughput(a arch.Arch, scale Scale) float64 {
	return e1Rx(a, scale, false)
}

// e1RxThroughputPolled forces the receiver into poll mode (no per-packet
// wake), isolating the stack cost from the scheduler cost.
func e1RxThroughputPolled(a arch.Arch, scale Scale) float64 {
	return e1Rx(a, scale, true)
}

func e1Rx(a arch.Arch, scale Scale, polled bool) float64 {
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}

	alice := w.Kern.AddUser(1000, "alice")
	proc := w.Kern.Spawn(alice.UID, "server")
	flow := w.Flow(43000, 9)
	c, err := a.Connect(proc, flow)
	if err != nil {
		panic("e1: connect: " + err.Error())
	}
	if polled {
		if err := a.SetRxMode(c, arch.RxPoll); err != nil {
			panic("e1: rx mode: " + err.Error())
		}
	}

	dur := scale.d(8 * sim.Millisecond)
	winLo := sim.Time(dur) / 3
	var winBytes uint64
	a.SetDeliver(func(_ *arch.Conn, p *packet.Packet, at sim.Time) {
		if at >= winLo {
			winBytes += uint64(p.FrameLen())
		}
	})
	gen := &host.InboundGen{
		Arch: a, Flows: []packet.FlowKey{flow}, Payload: 1460,
		Interval: host.IntervalFor(100, 1502),
		Until:    sim.Time(dur),
	}
	gen.Start(0)
	w.Eng.RunUntil(sim.Time(dur))
	gbps := stats.Throughput(winBytes, sim.Time(dur).Sub(winLo))
	balanced(w.Drain())
	return gbps
}

// e1RTT measures closed-loop echo latency.
func e1RTT(a arch.Arch, scale Scale) (p50, p99 sim.Duration) {
	w := a.World()
	w.Peer = host.EchoPeer(a)
	bob := w.Kern.AddUser(1001, "bob")
	proc := w.Kern.Spawn(bob.UID, "pinger")
	flow := w.Flow(42000, 7)
	c, err := a.Connect(proc, flow)
	if err != nil {
		panic("e1: connect: " + err.Error())
	}
	m := host.NewMux(a)
	probe := &host.Probe{Arch: a, Conn: c, Flow: flow, Payload: 64, Count: scale.n(500, 50)}
	probe.Start(m)
	balanced(w.Drain())
	return probe.Hist.P50(), probe.Hist.P99()
}

// installE1Policies applies a representative admin configuration: 16
// assorted firewall rules and a WFQ scheduler classed by user.
func installE1Policies(a arch.Arch) {
	for i := 0; i < 8; i++ {
		r := &filter.Rule{
			Proto:    filter.Proto(packet.ProtoUDP),
			DstPorts: filter.Port(uint16(20000 + i)),
			Action:   filter.ActDrop,
		}
		if err := a.InstallRule(filter.HookOutput, r); err != nil {
			return // architecture cannot interpose; policy column equals bare
		}
		in := &filter.Rule{
			Proto:    filter.Proto(packet.ProtoUDP),
			DstPorts: filter.Port(uint16(21000 + i)),
			Action:   filter.ActDrop,
		}
		if err := a.InstallRule(filter.HookInput, in); err != nil {
			return
		}
	}
	q := qos.NewWFQ(4096)
	q.SetWeight(1, 3)
	q.SetWeight(2, 1)
	_ = a.SetQdisc(q, func(p *packet.Packet) uint32 {
		if p.Meta.TrustedMeta && p.Meta.UID == 1000 {
			return 1
		}
		return 2
	})
}

// packetFrameLen mirrors packet.Packet.FrameLen for a UDP payload.
func packetFrameLen(payload int) int {
	n := 14 + 20 + 8 + payload
	if n < 60 {
		n = 60
	}
	return n
}
