package nic

import (
	"testing"

	"norman/internal/mem"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

// tenantFlow is the kernel-side (local) flow the NIC steers on; inbound
// frames built by tenantUDP arrive with the tuple reversed.
func tenantFlow(dport uint16) packet.FlowKey {
	return packet.FlowKey{Src: packet.MakeIP(10, 0, 0, 1), Dst: packet.MakeIP(10, 0, 0, 2),
		SrcPort: dport, DstPort: 99, Proto: packet.ProtoUDP}
}

// rxNow offers p to the NIC as a frame whose last bit arrived this instant
// (DeliverFromWire without the wire serialization).
func rxNow(n *NIC, p *packet.Packet) {
	j := n.job(nil, p)
	j.frame, j.stage = p.FrameLen(), stRxWire
	j.Fire()
}

// request submits one bare scheduling request for c — a job in no datapath
// stage, so it costs its estimate and its grant resumes nothing — and settles
// it, as every datapath caller of Stage.Request does.
func request(n *NIC, d *Stage, c *Conn, est sim.Duration) {
	j := n.job(c, nil)
	j.est = est
	d.Request(j)
	n.settle(j)
}

func tenantUDP(dport uint16) *packet.Packet {
	return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, packet.MakeIP(10, 0, 0, 2),
		packet.MakeIP(10, 0, 0, 1), 99, dport, 1460)
}

// tenantWorld builds a NIC with the tenant scheduler installed and one
// steered connection per listed tenant (conn id = tenant id).
func tenantWorld(t *testing.T, weights map[uint32]int, tenants ...uint32) (*NIC, *sim.Engine) {
	t.Helper()
	n, eng := newNIC(1 << 20)
	n.SetTenantScheduler(weights)
	for _, id := range tenants {
		if _, err := n.OpenConn(uint64(id), packet.Meta{UID: id, Tenant: id, TrustedMeta: true}, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.SteerFlow(tenantFlow(uint16(5000+id)), uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	return n, eng
}

// offer injects count 1502B frames for each listed tenant, interleaved at
// the given spacing — well above the pipeline's ~60ns/frame service rate, so
// every tenant keeps a standing backlog and the DRR's shares are observable.
func offer(n *NIC, eng *sim.Engine, count int, spacing sim.Duration, tenants ...uint32) {
	for i := 0; i < count; i++ {
		at := sim.Time(sim.Duration(i) * spacing)
		for _, id := range tenants {
			id := id
			eng.At(at, func() { rxNow(n, tenantUDP(uint16(5000+id))) })
		}
	}
}

// TestTenantSchedulerWeightRatio drives two tenants into sustained ingress
// overload and checks that the pipeline's grant split tracks the configured
// 7:1 weights. The property needs RX-driven backlog: offered load must
// exceed service capacity, or the queues drain each round and DRR degenerates
// to FIFO alternation regardless of weights.
func TestTenantSchedulerWeightRatio(t *testing.T) {
	n, eng := tenantWorld(t, map[uint32]int{1: 7, 2: 1}, 1, 2)
	offer(n, eng, 20000, 30*sim.Nanosecond, 1, 2)
	eng.Run()

	ts := n.TenantScheduler()
	g1 := ts.statsFor(1).PipeGrants
	g2 := ts.statsFor(2).PipeGrants
	if g1 == 0 || g2 == 0 {
		t.Fatalf("both tenants must be served: %d/%d", g1, g2)
	}
	ratio := float64(g1) / float64(g2)
	if ratio < 6 || ratio > 8 {
		t.Fatalf("grant ratio %.2f (g1=%d g2=%d), want ~7 from the 7:1 weights", ratio, g1, g2)
	}
	// Equal frame sizes, so occupancy must track grants.
	wr := float64(ts.statsFor(1).PipeWork) / float64(ts.statsFor(2).PipeWork)
	if wr < 6 || wr > 8 {
		t.Fatalf("work ratio %.2f, want ~7", wr)
	}
}

// TestTenantDRRWorkConserving pins the memoryless-deficit property: an idle
// tenant reserves nothing. Tenant 1 (weight 1) shares the scheduler with an
// idle tenant of weight 7; a strict time-partition would leave the server
// idle 7/8 of the time, DRR must run tenant 1's backlog back to back — the
// virtual clock at drain equals exactly requests × occupancy.
func TestTenantDRRWorkConserving(t *testing.T) {
	n, eng := newNIC(1 << 20)
	ca, err := n.OpenConn(1, packet.Meta{Tenant: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := sim.NewServer("wc.pipe")
	d := newStage(n, srv, map[uint32]int{1: 1, 2: 7}, 100*sim.Nanosecond)
	eng.At(0, func() {
		for i := 0; i < 1000; i++ {
			request(n, d, ca, 10*sim.Nanosecond)
		}
	})
	eng.Run()
	if served := d.qs[1].grants; served != 1000 {
		t.Fatalf("served %d of 1000", served)
	}
	if want := sim.Time(1000 * 10 * sim.Nanosecond); srv.FreeAt() != want {
		t.Fatalf("server busy until %v, want %v — it idled while tenant 1 was backlogged", srv.FreeAt(), want)
	}
}

// TestStageFIFOIsTheBareServer: with no weights a stage is its server and
// nothing more. A request acquires the server and continues on the spot — no
// queue, no event, no tenant row — Charge keeps no account, and
// TenantScheduler() reports that no scheduler is installed.
func TestStageFIFOIsTheBareServer(t *testing.T) {
	n, eng := newNIC(1 << 20)
	c, err := n.OpenConn(1, packet.Meta{Tenant: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.TenantScheduler() != nil {
		t.Fatal("a NIC without weights reports a tenant scheduler")
	}
	for _, d := range []*Stage{n.tsched.Pipe, n.tsched.DMA} {
		for i := 0; i < 100; i++ {
			request(n, d, c, 10*sim.Nanosecond)
			d.Charge(1, 5*sim.Nanosecond)
		}
		if want := sim.Time(100 * 10 * sim.Nanosecond); d.srv.FreeAt() != want {
			t.Fatalf("server busy until %v, want %v", d.srv.FreeAt(), want)
		}
		if d.Backlog() != 0 || d.qs != nil {
			t.Fatalf("the FIFO discipline queued: backlog %d, %d tenant rows", d.Backlog(), len(d.qs))
		}
	}
	if eng.Pending() != 0 || n.JobsOutstanding() != 0 {
		t.Fatalf("%d events scheduled and %d jobs held for 200 FIFO requests", eng.Pending(), n.JobsOutstanding())
	}
	if st := n.tsched.Stats(); len(st) != 0 {
		t.Fatalf("the FIFO discipline keeps tenant rows: %+v", st)
	}
}

// TestStageBooksTheRingSlotByDiscipline pins the one thing the disciplines do
// at different times (22 table lines hold it there): FIFO claims the RX ring
// slot, and clamps to the engine's free time, when the frame leaves the
// pipeline; DRR claims it when the request joins the DMA stage.
func TestStageBooksTheRingSlotByDiscipline(t *testing.T) {
	for _, d := range disciplines {
		n, eng, c := jobWorld(t, d.weights)
		n.StallDMA(5 * sim.Microsecond)
		_ = c.RX.Push(mem.Desc{}) // head moves to 1
		j := n.job(c, udpTo(80))
		j.index = 99
		at := n.tsched.DMA.book(j, eng.Now().Add(sim.Microsecond))
		fifo := d.weights == nil
		if claimed := j.index == 1; claimed != fifo {
			t.Errorf("%s: ring slot claimed on leaving the pipeline = %v", d.name, claimed)
		}
		if clamped := at == sim.Time(5*sim.Microsecond); clamped != fifo {
			t.Errorf("%s: store held to the engine's free time = %v (at %v)", d.name, clamped, at)
		}
		n.settle(j)
	}
}

// TestTenantSchedulerUncontendedLatency pins the opt-in contract: a single
// uncontended frame sees the identical delivery time with and without the
// scheduler installed — direct serves bypass the DRR machinery entirely.
func TestTenantSchedulerUncontendedLatency(t *testing.T) {
	run := func(sched bool) sim.Time {
		n, eng := newNIC(1 << 20)
		if sched {
			n.SetTenantScheduler(map[uint32]int{1: 7, 2: 1})
		}
		if _, err := n.OpenConn(1, packet.Meta{UID: 1, Tenant: 1, TrustedMeta: true}, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.SteerFlow(tenantFlow(5001), 1); err != nil {
			t.Fatal(err)
		}
		var at sim.Time
		n.OnRxDeliver = func(c *Conn, now sim.Time) { at = now }
		eng.At(0, func() { rxNow(n, tenantUDP(5001)) })
		eng.Run()
		if at == 0 {
			t.Fatal("frame not delivered")
		}
		return at
	}
	plain := run(false)
	sched := run(true)
	if plain != sched {
		t.Fatalf("uncontended delivery moved under the scheduler: %v vs %v", plain, sched)
	}
}

// TestTenantDRRZeroAlloc pins the per-packet scheduling hot path at zero
// allocations: grant rings and the active ring grow once, then every
// Request → select → serve cycle reuses them.
func TestTenantDRRZeroAlloc(t *testing.T) {
	n, eng := newNIC(1 << 20)
	ca, err := n.OpenConn(1, packet.Meta{Tenant: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := n.OpenConn(2, packet.Meta{Tenant: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := newStage(n, sim.NewServer("test.pipe"), map[uint32]int{1: 3, 2: 1}, 100*sim.Nanosecond)
	load := func() {
		for i := 0; i < 64; i++ {
			request(n, d, ca, 10*sim.Nanosecond)
			request(n, d, cb, 10*sim.Nanosecond)
		}
		eng.Run()
	}
	load() // grow the rings to steady-state size
	if d.Backlog() != 0 {
		t.Fatalf("backlog %d after drain", d.Backlog())
	}
	if allocs := testing.AllocsPerRun(100, load); allocs != 0 {
		t.Fatalf("scheduling hot path allocates %.2f/op", allocs)
	}
	if served := d.qs[1].grants + d.qs[2].grants; served != 128*102 {
		t.Fatalf("served %d grants, want %d", served, 128*102)
	}
}

// BenchmarkTenantDRR measures the scheduled request path under standing
// two-tenant backlog; allocs/op must report 0.
func BenchmarkTenantDRR(b *testing.B) {
	eng := sim.NewEngine()
	n := New(Config{Engine: eng, Model: timing.Default(), SRAMBudget: 1 << 20, RingSize: 8})
	ca, _ := n.OpenConn(1, packet.Meta{Tenant: 1}, nil)
	cb, _ := n.OpenConn(2, packet.Meta{Tenant: 2}, nil)
	d := newStage(n, sim.NewServer("bench.pipe"), map[uint32]int{1: 3, 2: 1}, 100*sim.Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(n, d, ca, 10*sim.Nanosecond)
		request(n, d, cb, 10*sim.Nanosecond)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// TestSetRxWindowResizesTenantShares: every row of the share table is a
// fraction of the FIFO depth, so a clamp (the health monitor's DMA quarantine,
// a fault burst) must reach it — the tenants' rows under DRR, the catch-all
// row under FIFO. With the DMA engine stalled nothing leaves the FIFO: of 64
// frames for one tenant exactly the clamp's worth are in flight and the rest
// are FIFO drops, on that tenant's account where tenants have accounts.
func TestSetRxWindowResizesTenantShares(t *testing.T) {
	for _, d := range disciplines {
		t.Run(d.name, func(t *testing.T) {
			n, eng := tenantWorld(t, d.weights, 1, 2)
			n.OnRxDeliver = func(c *Conn, _ sim.Time) { _, _ = c.RX.Pop() }
			n.SetRxWindow(8)
			n.StallDMA(sim.Millisecond)
			for i := 0; i < 64; i++ {
				rxNow(n, tenantUDP(5001))
				if in := n.RxInflight(); in > 8 {
					t.Fatalf("FIFO occupancy %d exceeds the clamp of 8", in)
				}
			}
			if n.RxFifoDrop != 56 || n.tsched.share(1).drops[RxFifo] != 56 || n.tsched.share(1).inflight != 8 {
				t.Fatalf("%d fifo drops, %d of them and %d frames in flight on tenant 1's row; want 56, 56, 8",
					n.RxFifoDrop, n.tsched.share(1).drops[RxFifo], n.tsched.share(1).inflight)
			}
			n.SetRxWindow(128)
			if d.weights == nil {
				if n.TenantFifoDrops(1) != 0 || n.tsched.all.window != 128 {
					t.Fatalf("FIFO discipline: %d drops on a tenant account, catch-all share %d; want 0 and 128",
						n.TenantFifoDrops(1), n.tsched.all.window)
				}
			} else {
				if n.TenantFifoDrops(1) != 56 || n.TenantFifoDrops(2) != 0 {
					t.Fatalf("fifo drops: %d on tenant 1, %d on tenant 2; want 56, 0", n.TenantFifoDrops(1), n.TenantFifoDrops(2))
				}
				if st := n.TenantScheduler().Stats(); st[0].RxWindow != 96 || st[1].RxWindow != 32 {
					t.Fatalf("shares after restoring the depth: %d and %d, want 96 and 32", st[0].RxWindow, st[1].RxWindow)
				}
			}
			eng.Run()
			if err := n.Balance(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
