package experiments

import (
	"strings"

	"norman/internal/arch"
	"norman/internal/filter"
	"norman/internal/host"
	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
)

// E4LoadPoint is one overlay-load measurement.
type E4LoadPoint struct {
	Rules     int
	LoadTime  sim.Duration // control-plane latency to install the program
	ProgInsts int          // compiled program size
}

// E4Disruption quantifies the dataplane impact of one policy update under
// steady traffic.
type E4Disruption struct {
	Mechanism   string
	UpdateTime  sim.Duration
	LostPackets uint64
	LostWindow  sim.Duration // over how long the losses occurred
}

// E4Result aggregates the reconfiguration experiment.
type E4Result struct {
	Loads       []E4LoadPoint
	Disruptions []E4Disruption
	// YearlyUpdates is the 2020 net/netfilter + net/sched commit count the
	// paper cites as the update rate an interposition layer must absorb.
	YearlyUpdates int
}

// RunE4 reproduces the programmability argument (§3, §4.4, §5-Q2): policy
// updates through the overlay are online and cheap (µs–ms of control-plane
// time, zero dataplane loss), while a full bitstream respin is a
// seconds-long dataplane outage — acceptable for "kernel upgrades", not for
// the 626 netfilter+sched changes Linux shipped in 2020 alone.
func RunE4(scale Scale) (*E4Result, *stats.Table) {
	res := &E4Result{YearlyUpdates: 377 + 249}

	// Loads and disruption runs are each their own quiet world; fan out.
	ruleCounts := []int{1, 16, 64, 256, 1024}
	res.Loads = make([]E4LoadPoint, len(ruleCounts))
	res.Disruptions = make([]E4Disruption, 3)
	r := NewRunner()
	for i, n := range ruleCounts {
		i, n := i, n
		r.Go(func() { res.Loads[i] = e4Load(n) })
	}
	r.Go(func() { res.Disruptions[0] = e4Disrupt("overlay-reload", false, scale) })
	r.Go(func() { res.Disruptions[1] = e4Disrupt("bitstream-respin", true, scale) })
	r.Go(func() { res.Disruptions[2] = e4KernelRuleUpdate(scale) })
	r.Wait()

	t := stats.NewTable("E4a: overlay program load latency vs compiled rule count",
		"rules", "instructions", "load latency")
	for _, l := range res.Loads {
		t.AddRow(l.Rules, l.ProgInsts, l.LoadTime.String())
	}

	t2 := stats.NewTable("\nE4b: dataplane disruption per policy update (1460B @ ~9G background)",
		"mechanism", "update latency", "packets lost", "loss window")
	for _, d := range res.Disruptions {
		t2.AddRow(d.Mechanism, d.UpdateTime.String(), d.LostPackets, d.LostWindow.String())
	}

	return res, composeTables(t, t2)
}

// composeTables renders multiple sub-tables as one table object (an entry of
// All returns one table; some experiments report sub-tables). The
// composite's title carries the fully rendered text.
func composeTables(tables ...*stats.Table) *stats.Table {
	title := ""
	for i, tb := range tables {
		if i > 0 {
			title += "\n"
		}
		title += strings.TrimRight(tb.String(), "\n")
	}
	return stats.NewTable(title)
}

// e4Load compiles an n-rule OUTPUT chain and measures the overlay load
// latency on a quiet NIC.
func e4Load(n int) E4LoadPoint {
	a := arch.New("kopi", arch.WorldConfig{}).(*arch.KOPI)
	ch := &filter.Chain{Name: "OUTPUT", Policy: filter.ActAccept}
	for i := 0; i < n; i++ {
		ch.Rules = append(ch.Rules, &filter.Rule{
			Proto:    filter.Proto(packet.ProtoUDP),
			DstPorts: filter.Port(uint16(1000 + i)),
			Action:   filter.ActDrop,
		})
	}
	prog, err := filter.CompileOverlay("e4", ch, nil)
	if err != nil {
		panic("e4: compile: " + err.Error())
	}
	_, load, err := a.World().NIC.LoadProgram(nic.Egress, prog)
	if err != nil {
		panic("e4: load: " + err.Error())
	}
	return E4LoadPoint{Rules: n, LoadTime: load, ProgInsts: len(prog.Code)}
}

// e4Disrupt runs steady egress traffic and applies one update mid-run:
// an online overlay reload, or a full bitstream respin with its outage.
func e4Disrupt(name string, bitstream bool, scale Scale) E4Disruption {
	a := arch.New("kopi", arch.WorldConfig{}).(*arch.KOPI)
	w := a.World()
	sink := host.NewSinkPeer()
	w.Peer = sink.Recv

	alice := w.Kern.AddUser(1000, "alice")
	proc := w.Kern.Spawn(alice.UID, "app")
	flow := w.Flow(30000, 9)
	c, err := a.Connect(proc, flow)
	if err != nil {
		panic("e4: connect: " + err.Error())
	}

	dur := scale.d(20 * sim.Millisecond)
	outage := scale.d(5 * sim.Millisecond) // scaled stand-in for the ~3s respin
	s := &host.Sender{Arch: a, Conn: c, Flow: flow, Payload: 1460,
		Interval: host.IntervalFor(9, 1502), Until: sim.Time(dur), Burst: 8}
	s.Start(0)

	var updateTime sim.Duration
	w.Eng.At(sim.Time(dur)/2, func() {
		if bitstream {
			w.NIC.ReloadBitstream(w.Eng.Now(), outage)
			updateTime = outage
			return
		}
		rule := &filter.Rule{
			Proto:    filter.Proto(packet.ProtoUDP),
			DstPorts: filter.Port(4444),
			Action:   filter.ActDrop,
		}
		if err := a.InstallRule(filter.HookOutput, rule); err != nil {
			panic("e4: install: " + err.Error())
		}
		updateTime = a.LastProgramLoad
	})
	balanced(w.Drain())

	lost := s.Sent - sink.Packets
	return E4Disruption{
		Mechanism:   name,
		UpdateTime:  updateTime,
		LostPackets: lost,
		LostWindow:  outage,
	}
}

// e4KernelRuleUpdate measures the same update on the kernel stack: an
// iptables rule insert is a locked list append — cheap, no loss — the bar
// KOPI's overlay path has to meet.
func e4KernelRuleUpdate(scale Scale) E4Disruption {
	a := arch.New("kernelstack", arch.WorldConfig{}).(*arch.KernelStack)
	w := a.World()
	sink := host.NewSinkPeer()
	w.Peer = sink.Recv

	alice := w.Kern.AddUser(1000, "alice")
	proc := w.Kern.Spawn(alice.UID, "app")
	flow := w.Flow(30000, 9)
	c, err := a.Connect(proc, flow)
	if err != nil {
		panic("e4: connect: " + err.Error())
	}
	dur := scale.d(20 * sim.Millisecond)
	s := &host.Sender{Arch: a, Conn: c, Flow: flow, Payload: 1460,
		Interval: host.IntervalFor(5, 1502), Until: sim.Time(dur), Burst: 8}
	s.Start(0)
	w.Eng.At(sim.Time(dur)/2, func() {
		rule := &filter.Rule{
			Proto:    filter.Proto(packet.ProtoUDP),
			DstPorts: filter.Port(4444),
			Action:   filter.ActDrop,
		}
		if err := a.InstallRule(filter.HookOutput, rule); err != nil {
			panic("e4: kernel install: " + err.Error())
		}
	})
	balanced(w.Drain())
	lost := s.Sent - sink.Packets
	return E4Disruption{
		Mechanism:   "kernel-rule-update",
		UpdateTime:  2 * sim.Microsecond, // rtnetlink + list splice
		LostPackets: lost,
	}
}
