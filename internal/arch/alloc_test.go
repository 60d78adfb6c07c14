package arch

import (
	"testing"

	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

// rxChain is a flow-invariant ingress chain (the flow cache memoizes it);
// with perFlow it keeps a table entry per source port, which the cache
// refuses, so every frame is interpreted.
func rxChain(t *testing.T, perFlow bool) *overlay.Program {
	t.Helper()
	src := "ldf r0, dst_port\njeq r0, 9, blocked\nldi r2, 7\nsetf mark, r2\npass\nblocked:\ndrop\n"
	if perFlow {
		src = ".table seen 64\nldf r3, src_port\nldi r4, 1\nupdate seen, r3, r4\n" + src
	}
	prog, err := overlay.Assemble("pin", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRxPathZeroAlloc pins the whole receive path — UDPFrom → DeliverWire →
// wire → pipeline → DMA → ring → poll-mode upcall — at zero allocations per
// frame once the frame, job and hop free lists and the event heap are warm: on
// a flow-cache hit, on an interpreted chain, and on the tenant-scheduled
// dataplane. Each frame is built inside the burst, so the pin covers its
// construction: the upcall's return gives it back for the next one.
func TestRxPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name           string
		perFlow, sched bool
	}{
		{"flowcache_hit", false, false},
		{"interpreted", true, false},
		{"tenant_scheduled", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New("kopi", WorldConfig{})
			w := a.World()
			u := w.Kern.AddUser(7, "u")
			proc := w.Kern.Spawn(u.UID, "p")
			flow := w.Flow(1000, 7)
			if _, err := a.Connect(proc, flow); err != nil {
				t.Fatal(err)
			}
			if tc.sched {
				w.NIC.SetTenantScheduler(map[uint32]int{7: 1})
			}
			if err := w.NIC.EnableFlowCache(64); err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.NIC.LoadProgram(nic.Ingress, rxChain(t, tc.perFlow)); err != nil {
				t.Fatal(err)
			}
			delivered := 0
			a.SetDeliver(func(*Conn, *packet.Packet, sim.Time) { delivered++ })
			burst := func() {
				for i := 0; i < 8; i++ {
					a.DeliverWire(w.UDPFrom(flow, 256))
				}
				w.Eng.Run()
			}
			burst() // grow the free lists and the heap to steady state
			if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
				t.Fatalf("receive path allocates %.2f per 8-frame burst, want 0", allocs)
			}
			if delivered != 8*52 {
				t.Fatalf("delivered %d frames, want %d", delivered, 8*52)
			}
			if hits := w.NIC.FlowCache().Hits; tc.perFlow == (hits > 0) {
				t.Fatalf("flow cache hits = %d with perFlow=%v", hits, tc.perFlow)
			}
			if out := w.NIC.JobsOutstanding(); out != 0 {
				t.Fatalf("%d datapath jobs outstanding on a drained engine", out)
			}
		})
	}
}

// TestSendPathZeroAlloc pins the transmit path — UDPTo → Send → core →
// descriptor → doorbell → fetch → egress pipeline → wire → peer — at zero
// allocations per frame, its construction included: the peer's return gives
// the frame back.
func TestSendPathZeroAlloc(t *testing.T) {
	a := New("kopi", WorldConfig{})
	w := a.World()
	got := 0
	w.Peer = func(*packet.Packet, sim.Time) { got++ }
	u := w.Kern.AddUser(7, "u")
	proc := w.Kern.Spawn(u.UID, "p")
	flow := w.Flow(1000, 7)
	c, err := a.Connect(proc, flow)
	if err != nil {
		t.Fatal(err)
	}
	burst := func() {
		for i := 0; i < 8; i++ {
			a.Send(c, w.UDPTo(flow, 256))
		}
		w.Eng.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
		t.Fatalf("send path allocates %.2f per 8-frame burst, want 0", allocs)
	}
	if got != 8*52 {
		t.Fatalf("peer saw %d frames, want %d", got, 8*52)
	}
	if out := w.NIC.JobsOutstanding(); out != 0 {
		t.Fatalf("%d datapath jobs outstanding on a drained engine", out)
	}
}

// TestConnectCloseAllocs pins one Connect → Close cycle on KOPI at four
// allocations, the records a connection's owners keep: the kernel's record,
// the host handle, the NIC connection (which holds both rings and its first
// steering keys inline) and the one slot array its two rings share. Close
// allocates nothing.
func TestConnectCloseAllocs(t *testing.T) {
	a := New("kopi", WorldConfig{})
	w := a.World()
	u := w.Kern.AddUser(7, "u")
	proc := w.Kern.Spawn(u.UID, "p")
	port := uint16(1000)
	cycle := func() {
		port++ // a fresh flow every time, as a churning client's would be
		c, err := a.Connect(proc, w.Flow(port, 7))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle() // grow the kernel's and the NIC's tables to steady state
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 4 {
		t.Fatalf("Connect+Close allocates %.2f times, want 4", allocs)
	}
}

// TestFrameCostsMatchModel is the host half of the price list's contract (the
// NIC's half is in internal/nic): the remembered cycle and copy costs are
// exactly the model's, for every argument inside the memo and past it, a
// world's prices come from its own model, and remembering them allocates
// nothing.
func TestFrameCostsMatchModel(t *testing.T) {
	slow := timing.Default()
	slow.CPUHz, slow.CopyBW, slow.CopyFixed = 2.2e9, 9e9, 45*sim.Nanosecond
	worlds := []*World{NewWorld(WorldConfig{}), NewWorld(WorldConfig{Model: slow})}
	for pass := 0; pass < 2; pass++ {
		for n := -1; n <= 9018; n++ {
			for _, w := range worlds {
				if got, want := w.cycles(n), w.Model.Cycles(n); got != want {
					t.Fatalf("cycles(%d) = %v, want %v", n, got, want)
				}
				if got, want := w.copyCost(n), w.Model.Copy(n); got != want {
					t.Fatalf("copyCost(%d) = %v, want %v", n, got, want)
				}
			}
		}
	}
	if worlds[0].cycles(40) == worlds[1].cycles(40) || worlds[0].copyCost(64) == worlds[1].copyCost(64) {
		t.Fatal("two worlds with different models share a price")
	}
	fresh := NewWorld(WorldConfig{})
	if allocs := testing.AllocsPerRun(1, func() {
		for n := 0; n < 200; n++ {
			fresh.cycles(n)
			fresh.copyCost(n)
		}
	}); allocs != 0 {
		t.Fatalf("filling the host price list allocates %.0f times, want 0", allocs)
	}
}
