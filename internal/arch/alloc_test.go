package arch

import (
	"testing"

	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
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

// TestRxPathZeroAlloc pins the whole receive path — DeliverWire → wire →
// pipeline → DMA → ring → poll-mode upcall — at zero allocations per frame
// once the job and hop free lists and the event heap are warm: on a
// flow-cache hit, on an interpreted chain, and on the tenant-scheduled
// dataplane. The frame is pre-built; building it is the one allocation a
// workload pays per packet (packet.TestConstructorAllocs).
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
			p := w.UDPFrom(flow, 256)
			burst := func() {
				for i := 0; i < 8; i++ {
					a.DeliverWire(p)
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

// TestSendPathZeroAlloc pins the transmit path — Send → core → descriptor →
// doorbell → fetch → egress pipeline → wire → peer — at zero allocations per
// pre-built frame.
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
	p := w.UDPTo(flow, 256)
	burst := func() {
		for i := 0; i < 8; i++ {
			a.Send(c, p)
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
