package experiments

import (
	"errors"
	"fmt"

	"norman/internal/arch"
	"norman/internal/filter"
	"norman/internal/host"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/sniff"
	"norman/internal/stats"
	"norman/internal/timing"
	"norman/internal/wire"
)

// Capability levels in the E2 matrix.
type CapLevel int

// Levels: No (cannot be done at all), Partial (works but without the
// process view the scenario actually needs), Yes (scenario fully solved).
const (
	CapNo CapLevel = iota
	CapPartial
	CapYes
)

func (l CapLevel) String() string {
	switch l {
	case CapYes:
		return "yes"
	case CapPartial:
		return "partial"
	default:
		return "no"
	}
}

// E2Result is the behavioral capability matrix: scenario -> arch -> level.
// Every cell is established by *running* the scenario, not by reading a
// capability flag.
type E2Result struct {
	Scenarios []string
	Archs     []string
	Cells     map[string]map[string]CapLevel
}

// Level returns a cell.
func (r *E2Result) Level(scenario, archName string) CapLevel {
	return r.Cells[scenario][archName]
}

// RunE2 reproduces §2: the four management scenarios (debugging, port
// partitioning, process scheduling, QoS) against all five architectures,
// plus a fifth row for the most basic tool of all — ping. Expected shape:
// kernelstack/sidecar/kopi solve all five; hypervisor gets partial
// debugging (sees frames, cannot attribute) and partial QoS (flow-level
// only); bypass solves none.
func RunE2(scale Scale) (*E2Result, *stats.Table) {
	res := &E2Result{
		Scenarios: []string{"debugging", "port-partition", "scheduling", "qos", "ping"},
		Archs:     arch.Names(),
		Cells:     map[string]map[string]CapLevel{},
	}
	for _, s := range res.Scenarios {
		res.Cells[s] = map[string]CapLevel{}
	}
	// Each cell runs its scenario in a fresh world, so the whole matrix
	// fans out. Tasks write into a slot matrix (maps are not safe for
	// concurrent writes); the maps are assembled after the Wait.
	cells := map[string]func(string) CapLevel{
		"debugging":      func(n string) CapLevel { return e2Debugging(n, scale) },
		"port-partition": func(n string) CapLevel { return e2PortPartition(n, scale) },
		"scheduling":     e2Scheduling,
		"qos":            func(n string) CapLevel { return e2QoS(n, scale) },
		"ping":           e2Ping,
	}
	levels := make([][]CapLevel, len(res.Scenarios))
	r := NewRunner()
	for i, s := range res.Scenarios {
		levels[i] = make([]CapLevel, len(res.Archs))
		run := cells[s]
		for j, name := range res.Archs {
			i, j, name := i, j, name
			r.Go(func() { levels[i][j] = run(name) })
		}
	}
	r.Wait()
	for i, s := range res.Scenarios {
		for j, name := range res.Archs {
			res.Cells[s][name] = levels[i][j]
		}
	}

	t := stats.NewTable("E2: §2 management scenarios by architecture (behavioral)",
		append([]string{"scenario"}, res.Archs...)...)
	for _, s := range res.Scenarios {
		row := []interface{}{s}
		for _, a := range res.Archs {
			row = append(row, res.Cells[s][a].String())
		}
		t.AddRow(row...)
	}
	return res, t
}

// e2Debugging: an ARP flooder and an innocent app share the NIC. Alice must
// trace the flood to the guilty *process*. Yes = capture (or ARP cache)
// identifies the pid; Partial = the flood is visible but unattributable;
// No = no visibility at all.
func e2Debugging(name string, scale Scale) CapLevel {
	a := arch.New(name, arch.WorldConfig{})
	w := a.World()
	sink := host.NewSinkPeer()
	w.Peer = sink.Recv

	bob := w.Kern.AddUser(1001, "bob")
	charlie := w.Kern.AddUser(1002, "charlie")
	good := w.Kern.Spawn(bob.UID, "webserver")
	bad := w.Kern.Spawn(charlie.UID, "leakyd")

	goodConn, err := a.Connect(good, w.Flow(8080, 80))
	if err != nil {
		return CapNo
	}
	badConn, err := a.Connect(bad, w.Flow(9999, 99))
	if err != nil {
		return CapNo
	}

	// Alice attaches tcpdump with filter "arp".
	tap, tapErr := a.AttachTap(sniff.MustParse("arp"))

	flood := &host.ARPFlooder{
		Arch: a, Conn: badConn, SrcMAC: w.HostMAC, SrcIP: w.HostIP,
		Interval: 20 * sim.Microsecond, Until: sim.Time(scale.d(4 * sim.Millisecond)),
	}
	flood.Start(0)
	normal := &host.Sender{
		Arch: a, Conn: goodConn, Flow: w.Flow(8080, 80), Payload: 256,
		Interval: 50 * sim.Microsecond, Until: sim.Time(scale.d(4 * sim.Millisecond)),
	}
	normal.Start(0)
	balanced(w.Drain())

	if tapErr != nil {
		// No capture point at all: Alice must audit app by app (§2).
		return CapNo
	}
	var sawARP, attributed bool
	for _, rec := range tap.Records() {
		if rec.Pkt.ARP == nil {
			continue
		}
		sawARP = true
		if rec.Pkt.Meta.TrustedMeta && rec.Pkt.Meta.PID == bad.PID {
			attributed = true
		}
	}
	// The kernel ARP cache view corroborates on OS-integrated paths.
	if pid, n := w.Kern.ARP().TopRequester(); n > 0 && pid == bad.PID {
		attributed = true
	}
	switch {
	case attributed:
		return CapYes
	case sawARP:
		return CapPartial
	default:
		return CapNo
	}
}

// e2PortPartition: only Bob's postgres may use port 5432. Charlie's
// misconfigured app tries to send on 5432. Yes = zero violating frames on
// the wire; No = violations escape (or the policy cannot be installed).
func e2PortPartition(name string, scale Scale) CapLevel {
	a := arch.New(name, arch.WorldConfig{})
	w := a.World()
	sink := host.NewSinkPeer()
	w.Peer = sink.Recv

	bob := w.Kern.AddUser(1001, "bob")
	charlie := w.Kern.AddUser(1002, "charlie")
	postgres := w.Kern.Spawn(bob.UID, "postgres")
	rogue := w.Kern.Spawn(charlie.UID, "script")

	pgFlow := w.Flow(5432, 5432)
	pgConn, err := a.Connect(postgres, pgFlow)
	if err != nil {
		return CapNo
	}
	rogueFlow := w.Flow(33000, 9) // innocent-looking connection
	rogueConn, err := a.Connect(rogue, rogueFlow)
	if err != nil {
		return CapNo
	}

	// Alice's policy: only bob's postgres may talk to 5432.
	allow := &filter.Rule{
		Proto: filter.Proto(packet.ProtoUDP), DstPorts: filter.Port(5432),
		OwnerUID: filter.UID(bob.UID), OwnerCmd: "postgres",
		Action: filter.ActAccept,
	}
	deny := &filter.Rule{
		Proto: filter.Proto(packet.ProtoUDP), DstPorts: filter.Port(5432),
		Action: filter.ActDrop,
	}
	if err := a.InstallRule(filter.HookOutput, allow); err != nil {
		return CapNo // owner policy cannot even be expressed
	}
	if err := a.InstallRule(filter.HookOutput, deny); err != nil {
		return CapNo
	}

	until := sim.Time(scale.d(3 * sim.Millisecond))
	// Legitimate postgres traffic.
	pg := &host.Sender{Arch: a, Conn: pgConn, Flow: pgFlow, Payload: 200,
		Interval: 30 * sim.Microsecond, Until: until}
	pg.Start(0)
	// Charlie's app writes raw frames claiming dst port 5432 on its own
	// connection — the kernel-bypass attack the paper describes.
	spoof := w.Flow(33000, 5432)
	rg := &host.Sender{Arch: a, Conn: rogueConn, Flow: rogueFlow, Payload: 200,
		Interval: 30 * sim.Microsecond, Until: until,
		Build: func(seq uint64) *packet.Packet {
			return w.UDPTo(spoof, 200)
		}}
	rg.Start(0)
	balanced(w.Drain())

	legit := sink.PerDstPort[5432]
	if legit == 0 {
		return CapNo // policy also broke the legitimate user
	}
	// Violations: frames on 5432 beyond what postgres itself sent.
	if sink.PerDstPort[5432] > pg.Bytes {
		return CapNo
	}
	return CapYes
}

// e2Scheduling: can an app block until data arrives instead of burning a
// core? Yes = RxBlock works and the packet still arrives.
func e2Scheduling(name string) CapLevel {
	a := arch.New(name, arch.WorldConfig{})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}

	bob := w.Kern.AddUser(1001, "bob")
	proc := w.Kern.Spawn(bob.UID, "worker")
	flow := w.Flow(7000, 7)
	c, err := a.Connect(proc, flow)
	if err != nil {
		return CapNo
	}
	if err := a.SetRxMode(c, arch.RxBlock); err != nil {
		if errors.Is(err, arch.ErrUnsupported) {
			return CapNo
		}
		return CapNo
	}
	got := 0
	a.SetDeliver(func(_ *arch.Conn, _ *packet.Packet, _ sim.Time) { got++ })
	w.Eng.At(sim.Time(100*sim.Microsecond), func() {
		a.DeliverWire(w.UDPFrom(flow, 128))
	})
	balanced(w.Drain())
	if got == 1 {
		return CapYes
	}
	return CapNo
}

// e2QoS: Bob's game and Charlie's backup compete; Alice wants the backup
// (charlie) weighted 3:1 over the game by *user*. Yes = achieved shares
// track the weights; Partial = a scheduler exists but cannot distinguish
// the users; No = no scheduling point.
func e2QoS(name string, scale Scale) CapLevel {
	ratio, err := runQoSShare(name, 3.0, scale, "wfq")
	if err != nil {
		return CapNo
	}
	switch {
	case ratio > 2.0: // weights respected (3:1 target)
		return CapYes
	case ratio > 0.5 && ratio < 2.0: // scheduler blind to users: ~1:1
		return CapPartial
	default:
		return CapNo
	}
}

// e2Ping: the most basic admin tool — can the kernel still send an ICMP
// echo and see the reply? (An instance of §2's broader point that the
// kernel has lost all dataplane visibility.)
func e2Ping(name string) CapLevel {
	a := arch.New(name, arch.WorldConfig{})
	w := a.World()
	n := wire.NewNetwork(a)
	ep := n.AddEndpoint(w.PeerIP, w.PeerMAC, nil)
	_ = ep
	ok := false
	if err := a.Ping(w.PeerIP, 56, func(_ sim.Duration, o bool) { ok = o }); err != nil {
		return CapNo
	}
	balanced(w.Drain())
	if ok {
		return CapYes
	}
	return CapNo
}

// runQoSShare runs two competing bulk users through a weighted scheduler
// classed by uid; it returns achieved(weighted)/achieved(unweighted) bytes.
// Shared with E6.
//
// The wire is set to 10G so the scheduler — not the software stack's CPU —
// is the contended resource on every architecture: E2/E6 test the shaping
// *mechanism*; E1 already measures who can drive 100G.
func runQoSShare(name string, weight float64, scale Scale, kind string) (float64, error) {
	model := timing.Default()
	model.WireBW = sim.Gbps(10)
	a := arch.New(name, arch.WorldConfig{Model: model})
	w := a.World()

	// Measure achieved shares only inside a steady-state window: the ramp
	// while queues fill and the post-run backlog drain both serve classes
	// ~equally and would dilute the ratio.
	until := sim.Time(scale.d(8 * sim.Millisecond))
	winLo, winHi := until/4, until
	perPort := map[uint16]uint64{}
	w.Peer = func(p *packet.Packet, at sim.Time) {
		if p.UDP == nil || at < winLo || at > winHi {
			return
		}
		perPort[p.UDP.DstPort] += uint64(p.FrameLen())
	}

	bob := w.Kern.AddUser(1001, "bob")
	charlie := w.Kern.AddUser(1002, "charlie")
	game := w.Kern.Spawn(bob.UID, "game")
	backup := w.Kern.Spawn(charlie.UID, "backup")

	gameFlow := w.Flow(20001, 1234)
	backupFlow := w.Flow(20002, 873)
	gameConn, err := a.Connect(game, gameFlow)
	if err != nil {
		return 0, err
	}
	backupConn, err := a.Connect(backup, backupFlow)
	if err != nil {
		return 0, err
	}

	classify := func(p *packet.Packet) uint32 {
		if p.Meta.TrustedMeta && p.Meta.UID == charlie.UID {
			return 1 // weighted class
		}
		return 2
	}
	var q qos.Qdisc
	switch kind {
	case "drr":
		d := qos.NewDRR(512, 1514)
		d.SetQuantum(1, int(1514*weight))
		d.SetQuantum(2, 1514)
		q = d
	default:
		wf := qos.NewWFQ(512)
		wf.SetWeight(1, weight)
		wf.SetWeight(2, 1)
		q = wf
	}
	if err := a.SetQdisc(q, classify); err != nil {
		return 0, err
	}

	// Both users offer well above their weighted share so the scheduler
	// must choose; bulk senders use jumbo (GSO-sized) frames, as real bulk
	// transfers do, so per-packet CPU cost does not cap demand first.
	mk := func(c *arch.Conn, f packet.FlowKey) *host.Sender {
		return &host.Sender{Arch: a, Conn: c, Flow: f, Payload: 8958,
			Interval: host.IntervalFor(9.5, 9000), Until: until, Burst: 8}
	}
	mk(gameConn, gameFlow).Start(0)
	mk(backupConn, backupFlow).Start(0)
	balanced(w.Drain())

	gameBytes := float64(perPort[1234])
	backupBytes := float64(perPort[873])
	if gameBytes == 0 {
		return 0, fmt.Errorf("e2: no unweighted traffic arrived")
	}
	return backupBytes / gameBytes, nil
}
