package nic

import (
	"testing"

	"norman/internal/mem"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// jobWorld is a NIC with one steered connection (id 1, tenant 1) receiving
// udpTo(80)'s flow, on the unscheduled or the tenant-scheduled dataplane.
func jobWorld(t *testing.T, sched bool) (*NIC, *sim.Engine, *Conn) {
	t.Helper()
	n, eng := newNIC(1 << 20)
	if sched {
		n.SetTenantScheduler(map[uint32]int{1: 3, 2: 1})
	}
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
		if err := c.TX.Push(mem.Desc{Pkt: udpTo(80)}); err != nil {
			t.Fatal(err)
		}
	}
	n.DoorbellTx(c)
}

const dropPort80 = "ldf r0, dst_port\njeq r0, 80, bad\npass\nbad:\ndrop\n"

// TestJobsReturnOnEveryExit drives one frame (or a few) down every early
// exit of the datapath, on both dataplanes, and checks two things each time:
// the exit was the one intended (its typed counter moved) and the frame's job
// record came back — a leaked record is a frame the NIC still thinks is in
// flight, a record freed twice panics in settle.
func TestJobsReturnOnEveryExit(t *testing.T) {
	exits := []struct {
		name string
		run  func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (got, want uint64)
	}{
		{"delivered", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.DeliverFromWire(udpTo(80))
			n.DeliverFromWire(udpTo(80))
			if out := n.JobsOutstanding(); out != 2 {
				t.Fatalf("%d jobs outstanding with 2 frames on the wire", out)
			}
			drained(t, n, eng)
			return c.RxDelivered, 2
		}},
		{"link_down", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.SetLink(false)
			n.DeliverFromWire(udpTo(80))
			drained(t, n, eng)
			return n.RxLinkDrop, 1
		}},
		{"pause_replay_across_flip", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
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
		{"fifo_drop", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
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
		{"shed", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.SetShedPolicy(func(*Conn, *packet.Packet) bool { return true })
			n.DeliverFromWire(udpTo(80))
			drained(t, n, eng)
			return n.RxShed, 1
		}},
		{"outage_slow_path", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			slow := uint64(0)
			n.SlowPath = func(*packet.Packet, sim.Time) { slow++ }
			n.ReloadBitstream(eng.Now(), sim.Millisecond)
			n.DeliverFromWire(udpTo(80))
			drained(t, n, eng)
			return slow + n.RxOutageDrop, 2
		}},
		{"overlay_then_flowcache_verdict_drop", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
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
		{"no_steer_drop", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.DeliverFromWire(udpTo(81))
			drained(t, n, eng)
			return n.RxDropNoSteer, 1
		}},
		{"no_steer_slow_path", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			slow := uint64(0)
			n.SlowPath = func(*packet.Packet, sim.Time) { slow++ }
			n.DeliverFromWire(udpTo(81))
			drained(t, n, eng)
			if n.RxInflight() != 0 {
				t.Fatalf("FIFO occupancy %d after the slow-path hand-off", n.RxInflight())
			}
			return slow, 1
		}},
		{"ring_full", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			for i := 0; i < 11; i++ { // ring of 8, nobody pops
				n.DeliverFromWire(udpTo(80))
			}
			drained(t, n, eng)
			return n.RxDropRing, 3
		}},
		{"tx_verdict_drop", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			load(t, n, Egress, dropPort80)
			pushTx(t, n, c, 3)
			drained(t, n, eng)
			return n.TxDropVerdict, 3
		}},
		{"tx_outage", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			pushTx(t, n, c, 1)
			n.ReloadBitstream(eng.Now(), 10*sim.Microsecond) // the fetch is in flight
			drained(t, n, eng)
			return n.TxOutageDrop, 1
		}},
		{"tx_staging_stall_resume", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
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
		{"tx_tso_and_qdisc", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			n.SetScheduler(qos.NewPFIFO(64))
			if err := n.SetTSO(1, 1000); err != nil {
				t.Fatal(err)
			}
			big := packet.NewTCP(packet.MAC{1}, packet.MAC{2}, 1, 2, 3, 4, packet.TCPAck, 4500)
			if err := c.TX.Push(mem.Desc{Pkt: big}); err != nil {
				t.Fatal(err)
			}
			n.DoorbellTx(c)
			drained(t, n, eng)
			return n.TxFrames, 5
		}},
		{"tx_paced_and_inject", func(t *testing.T, n *NIC, eng *sim.Engine, c *Conn) (uint64, uint64) {
			if err := n.SetConnRate(1, 1e6, 1514); err != nil {
				t.Fatal(err)
			}
			pushTx(t, n, c, 3) // the bucket covers one frame; two wait for tokens
			n.InjectTx(udpTo(9))
			drained(t, n, eng)
			return n.TxFrames, 4
		}},
	}
	for _, ex := range exits {
		for _, sched := range []bool{false, true} {
			name := ex.name + "/fifo"
			if sched {
				name = ex.name + "/tenant_drr"
			}
			t.Run(name, func(t *testing.T) {
				n, eng, c := jobWorld(t, sched)
				if got, want := ex.run(t, n, eng, c); got != want {
					t.Fatalf("typed counter = %d, want %d", got, want)
				}
				if n.RxInflight() != 0 || n.txInflight != 0 {
					t.Fatalf("FIFO/staging occupancy leaked: rx=%d tx=%d", n.RxInflight(), n.txInflight)
				}
			})
		}
	}
}

// TestTxPathZeroAlloc pins DoorbellTx → descriptor fetch → egress chain →
// wire at zero allocations per pre-built frame: straight to the wire, through
// a qdisc, and on the tenant-scheduled dataplane.
func TestTxPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name         string
		qdisc, sched bool
	}{{"wire", false, false}, {"qdisc", true, false}, {"tenant_drr", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			n, eng, c := jobWorld(t, tc.sched)
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
	for _, sched := range []bool{false, true} {
		n, eng, _ := jobWorld(t, sched)
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
			t.Fatalf("sched=%v: receive path allocates %.2f per 8-frame burst, want 0", sched, allocs)
		}
		if n.IngressProgCycles == 0 {
			t.Fatal("the chain never ran")
		}
	}
}
