package experiments

import (
	"errors"
	"sort"

	"norman"
	"norman/internal/arch"
	"norman/internal/filter"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/timing"
)

// The paper's four §2 management scenarios, each written once on the norman
// facade, the surface an operator uses: E2's cells and E8a's rows run them at
// the experiment's scale, and examples/{portpartition,arpdebug,blocking,
// qosgame} print them. Each builds its own System, so callers may run them in
// parallel. In all four Bob (uid 1001) and Charlie (uid 1002) share the host
// Alice administers.

// every calls fn at 0, gap, 2·gap, … while the clock is before until. No
// tick is scheduled past the last call, so the run ends with its traffic.
func every(sys *norman.System, gap, until norman.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		if sys.Now()+gap < until {
			sys.After(gap, tick)
		}
	}
	sys.At(0, tick)
}

// dial opens a connection the scenario cannot run without.
func dial(sys *norman.System, p *norman.Process, local, remote uint16) *norman.Conn {
	c, err := sys.Dial(p, local, remote)
	if err != nil {
		panic(err)
	}
	return c
}

// PortPartition: only Bob's postgres may use UDP port 5432, and Charlie's
// script writes raw frames claiming that port on its own connection, the
// freedom kernel bypass grants. Both send 200 B every 20 µs for scale × 4 ms.
// The policy is transactional: without the owner-scoped allow the blanket
// drop would break the legitimate user, so an admin who cannot express the
// allow installs neither rule (the policy is unenforceable, not port 5432
// killable).
func PortPartition(a norman.Architecture, scale Scale) E8Row {
	sys := norman.New(a)
	w := sys.World()
	row := E8Row{Arch: string(a)}
	w.Peer = func(p *packet.Packet, _ sim.Time) {
		if p.UDP == nil || p.UDP.DstPort != 5432 {
			return
		}
		// The receiver tells postgres by its source port (5432 both ways).
		if p.UDP.SrcPort == 5432 {
			row.LegitPackets++
		} else {
			row.Violations++
		}
	}
	bob, charlie := sys.AddUser(1001, "bob"), sys.AddUser(1002, "charlie")
	pg := dial(sys, sys.Spawn(bob, "postgres"), 5432, 5432)
	rogue := dial(sys, sys.Spawn(charlie, "script"), 33000, 9)

	err := sys.IPTablesAppend(norman.Output, norman.Rule{Proto: "udp", DstPort: 5432,
		OwnerUID: norman.UID(bob.UID), OwnerCmd: "postgres", Action: "accept"})
	if err == nil {
		row.PolicyInstalled = sys.IPTablesAppend(norman.Output,
			norman.Rule{Proto: "udp", DstPort: 5432, Action: "drop"}) == nil
	} else if !errors.Is(err, filter.ErrNeedsProcessView) && !errors.Is(err, arch.ErrUnsupported) {
		panic("port partition: unexpected install error: " + err.Error())
	}

	spoof := w.Flow(33000, 5432)
	every(sys, 20*sim.Microsecond, scale.d(4*sim.Millisecond), func() {
		pg.Send(200)
		rogue.SendRaw(w.UDPTo(spoof, 200))
	})
	sys.Run()
	return row
}

// ARPFloodResult is what Alice learns about the ARP flood.
type ARPFloodResult struct {
	TapErr        error  // why tcpdump has no capture point, nil if it has one
	Seen, Matched uint64 // frames the "arp" capture saw, and matched
	ByWho         []ARPSource
	TopPID        uint32 // the kernel ARP accounting's top requester
	TopRequests   uint64 // its requests; 0 without accounting
	CulpritPID    uint32 // leakyd's pid
	Named         bool   // a captured frame or the accounting names leakyd
}

// ARPSource is the number of captured ARP frames with one attribution.
type ARPSource struct {
	Who    string
	Frames int
}

// ARPFlood is the debugging scenario ("based on a true story"): Charlie's
// leakyd broadcasts an ARP who-has every 25 µs from its ring beside Bob's
// web server sending 256 B every 50 µs, for scale × 2 ms. Alice runs
// tcpdump "arp" and reads the kernel's ARP accounting to find the process.
func ARPFlood(a norman.Architecture, scale Scale) ARPFloodResult {
	sys := norman.New(a)
	sys.UseSinkPeer()
	w := sys.World()
	web := dial(sys, sys.Spawn(sys.AddUser(1001, "bob"), "webserver"), 8080, 80)
	leaky := sys.Spawn(sys.AddUser(1002, "charlie"), "leakyd")
	leakyConn := dial(sys, leaky, 9999, 99)
	capture, tapErr := sys.Tcpdump("arp")

	until := scale.d(2 * sim.Millisecond)
	every(sys, 50*sim.Microsecond, until, func() { web.Send(256) })
	target := uint32(0)
	every(sys, 25*sim.Microsecond, until, func() {
		target++
		leakyConn.SendRaw(packet.NewARPRequest(w.HostMAC, w.HostIP,
			packet.MakeIP(10, 0, byte(target>>8), byte(target))))
	})
	sys.Run()

	r := ARPFloodResult{TapErr: tapErr, CulpritPID: leaky.PID()}
	r.TopPID, r.TopRequests = sys.ARPTopRequester()
	r.Named = r.TopRequests > 0 && r.TopPID == leaky.PID()
	if tapErr != nil {
		return r
	}
	r.Seen, r.Matched = capture.Counters()
	frames := map[string]int{}
	for _, rec := range capture.Records() {
		frames[rec.Attribution()]++
		r.Named = r.Named || rec.Pkt.Meta.TrustedMeta && rec.Pkt.Meta.PID == leaky.PID()
	}
	for who, n := range frames {
		r.ByWho = append(r.ByWho, ARPSource{who, n})
	}
	sort.Slice(r.ByWho, func(i, j int) bool { return r.ByWho[i].Who < r.ByWho[j].Who })
	return r
}

// BlockingRun is one receive mode of the scheduling scenario.
type BlockingRun struct {
	Mode      string // "poll" or "block"
	Err       error  // why the mode is unavailable, nil if it is not
	Cores     float64
	P50       norman.Duration // median delivery latency
	Delivered uint64
}

// Blocking is the process-scheduling scenario: Bob's worker receives a 256 B
// datagram every 200 µs (5000/s) for scale × 20 ms, first polling its ring,
// then blocked until the kernel wakes it on arrival. It returns the poll run
// and the block run.
func Blocking(a norman.Architecture, scale Scale) [2]BlockingRun {
	return [2]BlockingRun{blockingRun(a, scale, false), blockingRun(a, scale, true)}
}

func blockingRun(a norman.Architecture, scale Scale, block bool) BlockingRun {
	sys := norman.New(a)
	sys.UseSinkPeer()
	conn := dial(sys, sys.Spawn(sys.AddUser(1001, "bob"), "worker"), 7000, 7)
	r := BlockingRun{Mode: "poll"}
	if block {
		r.Mode = "block"
		if r.Err = conn.SetBlocking(true); r.Err != nil {
			return r
		}
	}
	const gap = 200 * sim.Microsecond
	var lat stats.Histogram
	conn.OnReceive(func(d norman.Delivery) {
		// Datagram i is injected at i·gap and delivered in order.
		lat.Observe(d.At - norman.Duration(r.Delivered)*gap)
		r.Delivered++
	})
	every(sys, gap, scale.d(20*sim.Millisecond), func() { sys.InjectInbound(conn, 256) })
	end := sys.Run()
	r.Cores = sys.World().CPUBusy(sim.Time(end)).Seconds() / end.Seconds()
	r.P50 = lat.P50()
	return r
}

// QoSShareResult is the split the QoS scenario achieves.
type QoSShareResult struct {
	Err                  error // why tc cannot install the qdisc, nil if it can
	BackupGbps, GameGbps float64
	Ratio                float64 // backup over game; 0 if no game traffic arrived
}

// QoSShare is the QoS scenario: Bob's game and Charlie's backup each offer
// about 9.5 Gbit/s of jumbo-frame bulk (SendBatch(8958, 4) every 30.3 µs) on
// a 10G wire, so the scheduler and not a CPU is contended, and Alice's tc
// qdisc is a WFQ weighting the backup 8:1 by user. Shares are measured in the
// steady-state window [until/4, until], until = scale × 6 ms: the queue-fill
// ramp and the backlog drain after it would dilute the ratio.
func QoSShare(a norman.Architecture, scale Scale) QoSShareResult {
	model := timing.Default()
	model.WireBW = sim.Gbps(10)
	sys := norman.New(a, norman.WithModel(model))
	until := scale.d(6 * sim.Millisecond)
	winLo := until / 4
	perPort := map[uint16]uint64{}
	sys.World().Peer = func(p *packet.Packet, at sim.Time) {
		if p.UDP != nil && sim.Duration(at) >= winLo && sim.Duration(at) <= until {
			perPort[p.UDP.DstPort] += uint64(p.FrameLen())
		}
	}
	bob, charlie := sys.AddUser(1001, "bob"), sys.AddUser(1002, "charlie")
	game := dial(sys, sys.Spawn(bob, "game"), 20001, 1234)
	backup := dial(sys, sys.Spawn(charlie, "backup"), 20002, 873)

	var r QoSShareResult
	if r.Err = sys.TCSet(norman.QdiscSpec{Kind: "wfq", Weights: map[uint32]float64{1: 8, 2: 1}, Limit: 512,
		ClassOfUID: map[uint32]uint32{charlie.UID: 1, bob.UID: 2}}); r.Err != nil {
		return r
	}
	for _, c := range []*norman.Conn{game, backup} {
		every(sys, 4*7578*sim.Nanosecond, until, func() { c.SendBatch(8958, 4) })
	}
	sys.Run()

	win := (until - winLo).Seconds()
	r.BackupGbps = float64(perPort[873]) * 8 / win / 1e9
	r.GameGbps = float64(perPort[1234]) * 8 / win / 1e9
	if r.GameGbps > 0 {
		r.Ratio = r.BackupGbps / r.GameGbps
	}
	return r
}
