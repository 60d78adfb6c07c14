package experiments

import (
	"errors"
	"fmt"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/timing"
)

// E6Row is one (architecture, weight) fairness measurement.
type E6Row struct {
	Arch        string
	Weight      float64
	AchievedWFQ float64 // achieved byte ratio backup:game under WFQ
	AchievedDRR float64 // same under DRR
	Err         string  // non-empty when the architecture cannot schedule
}

// E6Game is the §2 game-shaping scenario: cap the game's bandwidth so bulk
// work is unaffected.
type E6Game struct {
	Arch        string
	GameGbps    float64 // achieved by the (shaped) game traffic
	BulkGbps    float64 // achieved by the productive traffic
	ShapeToGbps float64 // the configured cap
	Enforceable bool
}

// E6Result aggregates the QoS experiment.
type E6Result struct {
	Fairness []E6Row
	Game     []E6Game
}

// RunE6 reproduces the §2 QoS scenario quantitatively: achieved shares
// should track configured per-user weights wherever the scheduler sees who
// generates the traffic (kernelstack, sidecar, kopi), collapse to ~1:1 where
// it cannot (hypervisor), and be unconfigurable on raw bypass. The DRR
// column is the hardware-friendly scheduler ablation.
func RunE6(scale Scale) (*E6Result, *stats.Table) {
	names := arch.Names()
	weights := []float64{2, 3, 8}
	res := &E6Result{
		Fairness: make([]E6Row, len(names)*len(weights)),
		Game:     make([]E6Game, len(names)),
	}
	pool := NewRunner()
	for i, name := range names {
		for j, weight := range weights {
			row := &res.Fairness[i*len(weights)+j]
			name, weight := name, weight
			row.Arch = name
			row.Weight = weight
			pool.Go(func() {
				r, err := runQoSShare(name, weight, scale, "wfq")
				if err != nil {
					row.Err = errString(err)
					return
				}
				row.AchievedWFQ = r
				if r2, err := runQoSShare(name, weight, scale, "drr"); err == nil {
					row.AchievedDRR = r2
				}
			})
		}
	}
	for i, name := range names {
		i, name := i, name
		pool.Go(func() { res.Game[i] = e6Game(name, scale) })
	}
	pool.Wait()

	t := stats.NewTable("E6a: achieved share ratio (backup:game) vs configured weight",
		"arch", "weight", "wfq achieved", "drr achieved", "error")
	for _, r := range res.Fairness {
		t.AddRow(r.Arch, r.Weight, r.AchievedWFQ, r.AchievedDRR, r.Err)
	}
	t2 := stats.NewTable("\nE6b: game traffic shaped to 1G while bulk is unaffected",
		"arch", "game (Gbps)", "bulk (Gbps)", "enforced")
	for _, g := range res.Game {
		t2.AddRow(g.Arch, g.GameGbps, g.BulkGbps, fmt.Sprintf("%v", g.Enforceable))
	}
	return res, composeTables(t, t2)
}

func errString(err error) string {
	if errors.Is(err, arch.ErrUnsupported) {
		return "unsupported"
	}
	return err.Error()
}

// e6Game runs the SSH-game scenario: Bob's game competes with Charlie's
// backup; Alice caps the game at 1G with a TBF band under strict priority
// classified by user. Enforced = game held near the cap while bulk keeps its
// demand.
func e6Game(name string, scale Scale) E6Game {
	model := timing.Default()
	model.WireBW = sim.Gbps(10)
	a := arch.New(name, arch.WorldConfig{Model: model})
	w := a.World()

	g := E6Game{Arch: name, ShapeToGbps: 1}

	until := sim.Time(scale.d(8 * sim.Millisecond))
	winLo := until / 4
	perPort := map[uint16]uint64{}
	w.Peer = func(p *packet.Packet, at sim.Time) {
		if p.UDP != nil && at >= winLo && at <= until {
			perPort[p.UDP.DstPort] += uint64(p.FrameLen())
		}
	}

	bob := w.Kern.AddUser(1001, "bob")
	charlie := w.Kern.AddUser(1002, "charlie")
	game := w.Kern.Spawn(bob.UID, "game")
	backup := w.Kern.Spawn(charlie.UID, "backup")

	gameFlow := w.Flow(20001, 1234)
	backupFlow := w.Flow(20002, 873)
	gameConn, err := a.Connect(game, gameFlow)
	if err != nil {
		g.Enforceable = false
		return g
	}
	backupConn, err := a.Connect(backup, backupFlow)
	if err != nil {
		g.Enforceable = false
		return g
	}

	// Band 0: everything else, FIFO. Band 1: the game user, shaped to 1G.
	sched := qos.NewPrioWith(
		qos.NewPFIFO(512),
		qos.NewTBF(512, sim.Gbps(1), 64<<10),
	)
	classify := func(p *packet.Packet) uint32 {
		if p.Meta.TrustedMeta && p.Meta.UID == bob.UID {
			return 1
		}
		return 0
	}
	if err := a.SetQdisc(sched, classify); err != nil {
		g.Enforceable = false
		return g
	}

	mk := func(c *arch.Conn, f packet.FlowKey, gbps float64) *host.Sender {
		return &host.Sender{Arch: a, Conn: c, Flow: f, Payload: 8958,
			Interval: host.IntervalFor(gbps, 9000), Until: until, Burst: 4}
	}
	mk(gameConn, gameFlow, 5).Start(0)     // the game tries to use 5G
	mk(backupConn, backupFlow, 6).Start(0) // productive work wants 6G
	balanced(w.Drain())

	win := until.Sub(winLo)
	g.GameGbps = stats.Throughput(perPort[1234], win)
	g.BulkGbps = stats.Throughput(perPort[873], win)
	// Enforced: the game is held near the cap and bulk gets its demand.
	g.Enforceable = g.GameGbps < 1.6 && g.BulkGbps > 5.0
	return g
}

// runQoSShare is E6a's sweep point: two competing bulk users through a
// weighted scheduler (WFQ or DRR) classed by uid; it returns
// achieved(weighted)/achieved(unweighted) bytes. E2's QoS cell runs the
// facade scenario QoSShare instead, at the one weight examples/qosgame shows.
//
// The wire is set to 10G so the scheduler — not the software stack's CPU —
// is the contended resource on every architecture: E6 tests the shaping
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
		return 0, fmt.Errorf("e6: no unweighted traffic arrived")
	}
	return backupBytes / gameBytes, nil
}
