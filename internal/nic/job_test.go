package nic

import (
	"strings"
	"testing"

	"norman/internal/mem"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/telemetry"
)

// disciplines is the one table every test that must hold under both service
// disciplines ranges over: the FIFO a NIC is born with (no weights) and
// weighted DRR with per-tenant FIFO shares.
var disciplines = []struct {
	name    string
	weights map[uint32]int
}{
	{"fifo", nil},
	{"tenant_drr", map[uint32]int{1: 3, 2: 1}},
}

// jobWorld is a NIC with one steered connection (id 1, tenant 1) receiving
// udpTo(80)'s flow, under the discipline the weights select.
func jobWorld(t *testing.T, weights map[uint32]int) (*NIC, *sim.Engine, *Conn) {
	t.Helper()
	n, eng := newNIC(1 << 20)
	n.SetTenantScheduler(weights)
	c, err := n.OpenConn(1, packet.Meta{UID: 1, Tenant: 1, TrustedMeta: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := udpTo(80).Flow()
	if err := n.SteerFlow(k, 1); err != nil {
		t.Fatal(err)
	}
	return n, eng, c
}

// drained runs the engine dry and asserts the job ledger: every record a
// frame, a drain chain or the wire pump took is back on the free list.
func drained(t *testing.T, n *NIC, eng *sim.Engine) {
	t.Helper()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending", eng.Pending())
	}
	if out := n.JobsOutstanding(); out != 0 {
		t.Fatalf("%d datapath jobs outstanding on a drained engine", out)
	}
}

func load(t *testing.T, n *NIC, dir Direction, src string) {
	t.Helper()
	if _, _, err := n.LoadProgram(dir, assemble(t, "jobtest", src)); err != nil {
		t.Fatal(err)
	}
}

func pushTx(t *testing.T, n *NIC, c *Conn, frames int) {
	t.Helper()
	for i := 0; i < frames; i++ {
		if err := c.TX.Push(mem.Desc{Pkt: traced(n, udpTo(80))}); err != nil {
			t.Fatal(err)
		}
	}
	n.DoorbellTx(c)
}

// traced stamps an egress packet the way the host side does, so the NIC's
// spans for it are recorded (ingress frames are stamped at rx_wire).
func traced(n *NIC, p *packet.Packet) *packet.Packet {
	if n.tracer != nil {
		p.Meta.Trace = n.tracer.StampID()
	}
	return p
}

// dropSpans counts the recorded nic/drop spans by their reason= field, and
// those of them that name connection 1.
func dropSpans(tr *telemetry.Tracer) (got, conn1 map[string]uint64) {
	got, conn1 = map[string]uint64{}, map[string]uint64{}
	for _, id := range tr.IDs() {
		for _, ev := range tr.Trace(id) {
			if ev.Layer == "nic" && ev.Point == "drop" {
				reason, who, _ := strings.Cut(strings.TrimPrefix(ev.Note, "reason="), " ")
				got[reason]++
				if strings.HasPrefix(who, "conn=1 ") {
					conn1[reason]++
				}
			}
		}
	}
	return got, conn1
}

const dropPort80 = "ldf r0, dst_port\njeq r0, 80, bad\npass\nbad:\ndrop\n"

// TestJobsReturnOnEveryExit drives one frame (or a few) down every exit of the
// datapath, under both disciplines, and checks each time that the exit was the
// one intended (its typed counter moved), that the frame's job record came
// back — a leaked record is a frame the NIC still thinks is in flight, a
// record freed twice or freed holding a slot panics in settle — that the
// ledger balances, and that every drop left one nic/drop span naming its
// reason — and, from admission on, the steered connection: there is one
// admission order, so a FIFO drop knows whose frame it was under either
// discipline — and was charged to a tenant when the share table keeps tenant
// rows. The cases are keyed by the reason table: a Reason no case exercises
// fails the test.
func TestJobsReturnOnEveryExit(t *testing.T) {
	const noDrop = NumReasons // a delivery, punt or transmit exit
	exits := []struct {
		name   string
		reason Reason
		run    func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (got, want uint64)
	}{
		{"delivered", noDrop, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.DeliverFromWire(udpTo(80))
			n.DeliverFromWire(udpTo(80))
			if out := n.JobsOutstanding(); out != 2 {
				t.Fatalf("%d jobs outstanding with 2 frames on the wire", out)
			}
			drained(t, n, eng)
			return c.RxDelivered, 2
		}},
		{"link_down", RxLink, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.SetLink(false)
			n.DeliverFromWire(udpTo(80))
			drained(t, n, eng)
			return n.RxLinkDrop, 1
		}},
		{"pause_replay_across_flip", RxPause, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			if err := n.StageGeneration(0, assemble(t, "v2", "pass\n"), nil); err != nil {
				t.Fatal(err)
			}
			if err := n.PauseRx(2); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				n.DeliverFromWire(udpTo(80))
			}
			drained(t, n, eng) // two buffered, one RxPauseDrop: no job waits out the pause
			if n.RxPauseBuffered != 2 || n.RxPauseDrop != 1 {
				t.Fatalf("buffered=%d dropped=%d", n.RxPauseBuffered, n.RxPauseDrop)
			}
			if _, err := n.ActivateStaged(eng.Now()); err != nil {
				t.Fatal(err)
			}
			if err := n.ResumeRx(); err != nil {
				t.Fatal(err)
			}
			drained(t, n, eng)
			return c.RxDelivered, 2
		}},
		{"fifo_drop", RxFifo, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.StallDMA(sim.Millisecond) // nothing leaves the 128-slot FIFO while 200 frames arrive
			for i := 0; i < 200; i++ {
				n.DeliverFromWire(udpTo(80))
			}
			n.OnRxDeliver = func(c *Conn, _ sim.Time) { _, _ = c.RX.Pop() }
			drained(t, n, eng)
			if n.RxFifoDrop == 0 {
				t.Fatal("no FIFO drop")
			}
			return c.RxDelivered + n.RxFifoDrop, 200
		}},
		{"shed", RxShed, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.SetShedPolicy(func(*Conn, *packet.Packet) bool { return true })
			n.DeliverFromWire(udpTo(80))
			drained(t, n, eng)
			return n.RxShed, 1
		}},
		{"outage_slow_path", RxOutage, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			slow := uint64(0)
			n.SlowPath = func(*packet.Packet, sim.Time) { slow++ }
			n.ReloadBitstream(eng.Now(), sim.Millisecond)
			n.DeliverFromWire(udpTo(80))
			drained(t, n, eng)
			return slow + n.RxOutageDrop, 2
		}},
		{"outage_empties_pause_buffer", RxOutage, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			if err := n.PauseRx(4); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				n.DeliverFromWire(udpTo(80))
			}
			drained(t, n, eng)
			n.ReloadBitstream(eng.Now(), sim.Millisecond) // the buffered frames are part of the outage
			return n.RxOutageDrop, 3
		}},
		{"overlay_then_flowcache_verdict_drop", RxVerdict, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			if err := n.EnableFlowCache(16); err != nil {
				t.Fatal(err)
			}
			load(t, n, Ingress, dropPort80)
			n.DeliverFromWire(udpTo(80)) // interpreted, memoized
			n.DeliverFromWire(udpTo(80)) // served from the cache
			drained(t, n, eng)
			if n.FlowCache().Hits != 1 {
				t.Fatalf("flow cache hits = %d, want 1", n.FlowCache().Hits)
			}
			return n.RxDropVerdict, 2
		}},
		{"no_steer_drop", RxNoSteer, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.DeliverFromWire(udpTo(81))
			drained(t, n, eng)
			return n.RxDropNoSteer, 1
		}},
		{"no_steer_slow_path", noDrop, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			slow := uint64(0)
			n.SlowPath = func(*packet.Packet, sim.Time) { slow++ }
			n.DeliverFromWire(udpTo(81))
			drained(t, n, eng)
			if n.RxInflight() != 0 {
				t.Fatalf("FIFO occupancy %d after the slow-path hand-off", n.RxInflight())
			}
			return slow, 1
		}},
		{"ring_full", RxRing, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			for i := 0; i < 11; i++ { // ring of 8, nobody pops
				n.DeliverFromWire(udpTo(80))
			}
			drained(t, n, eng)
			return n.RxDropRing, 3
		}},
		{"tx_verdict_drop", TxVerdict, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			load(t, n, Egress, dropPort80)
			pushTx(t, n, c, 3)
			drained(t, n, eng)
			return n.TxDropVerdict, 3
		}},
		{"tx_outage", TxOutage, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			pushTx(t, n, c, 1)
			n.ReloadBitstream(eng.Now(), 10*sim.Microsecond) // the fetch is in flight
			drained(t, n, eng)
			return n.TxOutageDrop, 1
		}},
		{"tx_inject_outage", TxOutage, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.ReloadBitstream(eng.Now(), sim.Millisecond)
			n.InjectTx(traced(n, udpTo(9)))
			drained(t, n, eng)
			return n.TxOutageDrop, 1
		}},
		{"tx_qdisc_refuses", noDrop, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.SetScheduler(qos.NewPFIFO(2))
			n.wireTx.Acquire(eng.Now(), 100*sim.Microsecond) // nothing leaves the 2-slot qdisc while 8 frames arrive
			pushTx(t, n, c, 8)
			drained(t, n, eng)
			if n.txRefused == 0 {
				t.Fatal("the qdisc refused nothing")
			}
			return n.TxFrames + n.txRefused, 8
		}},
		{"tx_staging_stall_resume", noDrop, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			// Five full rings against a 32-slot staging buffer held shut by a
			// busy wire: queues stall, then resume as slots free.
			n.wireTx.Acquire(eng.Now(), 100*sim.Microsecond)
			conns := []*Conn{c}
			for id := uint64(2); id <= 5; id++ {
				cc, err := n.OpenConn(id, packet.Meta{Tenant: 1}, nil)
				if err != nil {
					t.Fatal(err)
				}
				conns = append(conns, cc)
			}
			stalled := false
			n.OnTransmit = func(*packet.Packet, sim.Time) { stalled = stalled || len(n.txStalled) > 0 }
			for _, cc := range conns {
				pushTx(t, n, cc, 8)
			}
			drained(t, n, eng)
			if !stalled {
				t.Fatal("no queue ever stalled on the staging window")
			}
			return n.TxFrames, 40
		}},
		{"tx_paced_and_inject", noDrop, func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			if err := n.SetConnRate(1, 1e6, 1514); err != nil {
				t.Fatal(err)
			}
			pushTx(t, n, c, 3) // the bucket covers one frame; two wait for tokens
			n.InjectTx(traced(n, udpTo(9)))
			drained(t, n, eng)
			return n.TxFrames, 4
		}},
	}
	// Exits whose frame never reached steering, matched no connection, or was
	// injected without one: their drop spans say conn=0.
	unsteered := map[string]bool{"link_down": true, "pause_replay_across_flip": true,
		"outage_empties_pause_buffer": true, "no_steer_drop": true, "tx_inject_outage": true}
	covered := map[Reason]bool{}
	for _, ex := range exits {
		covered[ex.reason] = true
		for _, d := range disciplines {
			t.Run(ex.name+"/"+d.name, func(t *testing.T) {
				n, eng, c := jobWorld(t, d.weights)
				tr := telemetry.NewTracer(512)
				n.SetTracer(tr)
				if got, want := ex.run(t, n, eng, c); got != want {
					t.Fatalf("typed counter = %d, want %d", got, want)
				}
				if err := n.Balance(); err != nil {
					t.Fatal(err)
				}
				spans, conn1 := dropSpans(tr)
				for r := Reason(0); r < NumReasons; r++ {
					named := spans[r.String()]
					if unsteered[ex.name] {
						named = 0
					}
					if conn1[r.String()] != named {
						t.Errorf("%d of %d %q drop spans name conn=1, want %d", conn1[r.String()], spans[r.String()], r, named)
					}
					if (n.Dropped(r) > 0) != (r == ex.reason) {
						t.Errorf("%d frames dropped under %q on the %q exit", n.Dropped(r), r, ex.name)
					}
					if spans[r.String()] != n.Dropped(r) {
						t.Errorf("%d drop spans carry reason=%s, the counter reads %d", spans[r.String()], r, n.Dropped(r))
					}
					if charged := n.TenantDrops(0, r) + n.TenantDrops(1, r) + n.TenantDrops(2, r); d.weights != nil && charged != n.Dropped(r) {
						t.Errorf("%d of %d %q drops charged to a tenant", charged, n.Dropped(r), r)
					}
				}
			})
		}
	}
	for r := Reason(0); r < NumReasons; r++ {
		if !covered[r] {
			t.Errorf("drop reason %q (%s) has no exit case", r, r.Metric())
		}
	}
}

// TestTxPathZeroAlloc pins DoorbellTx → descriptor fetch → egress chain →
// wire at zero allocations per pre-built frame: straight to the wire, through
// a qdisc, and under weighted DRR.
func TestTxPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name       string
		qdisc      bool
		discipline int
	}{{"wire", false, 0}, {"qdisc", true, 0}, {"tenant_drr", false, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			n, eng, c := jobWorld(t, disciplines[tc.discipline].weights)
			if tc.qdisc {
				n.SetScheduler(qos.NewWFQ(64))
			}
			load(t, n, Egress, "ldf r0, dst_port\njeq r0, 9, bad\npass\nbad:\ndrop\n")
			sent := 0
			n.OnTransmit = func(*packet.Packet, sim.Time) { sent++ }
			p := udpTo(80)
			burst := func() {
				for i := 0; i < 8; i++ {
					_ = c.TX.Push(mem.Desc{Pkt: p})
				}
				n.DoorbellTx(c)
				eng.Run()
			}
			burst()
			if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
				t.Fatalf("transmit path allocates %.2f per 8-frame burst, want 0", allocs)
			}
			if sent != 8*52 {
				t.Fatalf("sent %d frames, want %d", sent, 8*52)
			}
		})
	}
}

// TestRxPathZeroAllocNIC pins DeliverFromWire → pipeline → DMA → ring at zero
// allocations with the chain interpreted on every frame: the job record is
// the overlay.Env, so a run boxes nothing. (The arch package pins the same
// path through the poll-mode upcall.)
func TestRxPathZeroAllocNIC(t *testing.T) {
	for _, d := range disciplines {
		n, eng, _ := jobWorld(t, d.weights)
		load(t, n, Ingress, ".table seen 16\nldf r3, src_port\nldi r4, 1\nupdate seen, r3, r4\nmirror\npass\n")
		n.OnRxDeliver = func(c *Conn, _ sim.Time) { _, _ = c.RX.Pop() }
		p := udpTo(80)
		burst := func() {
			for i := 0; i < 8; i++ {
				n.DeliverFromWire(p)
			}
			eng.Run()
		}
		burst()
		if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
			t.Fatalf("%s: receive path allocates %.2f per 8-frame burst, want 0", d.name, allocs)
		}
		if n.IngressProgCycles == 0 {
			t.Fatal("the chain never ran")
		}
	}
}
