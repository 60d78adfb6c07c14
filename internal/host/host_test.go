package host

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/sim"
)

func TestIntervalFor(t *testing.T) {
	// 100 Gbps with 1502B frames: 12016 bits / 1e11 bps ≈ 120.16 ns.
	d := IntervalFor(100, 1502)
	if d < 120*sim.Nanosecond || d > 121*sim.Nanosecond {
		t.Fatalf("interval = %v", d)
	}
}

func TestMuxRoutesPerConnection(t *testing.T) {
	a := arch.New("kopi", arch.WorldConfig{})
	w := a.World()
	w.Peer = EchoPeer(a)
	alice := w.Kern.AddUser(1, "a")
	proc := w.Kern.Spawn(alice.UID, "app")
	c1, err := a.Connect(proc, w.Flow(1000, 7))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := a.Connect(proc, w.Flow(2000, 7))
	if err != nil {
		t.Fatal(err)
	}

	m := NewMux(a)
	got := map[uint64]int{}
	m.Handle(c1, func(c *arch.Conn, _ *packet.Packet, _ sim.Time) { got[c.Info.ID]++ })
	var fallback int
	m.Fallback(func(*arch.Conn, *packet.Packet, sim.Time) { fallback++ })

	a.Send(c1, w.UDPTo(w.Flow(1000, 7), 64))
	a.Send(c2, w.UDPTo(w.Flow(2000, 7), 64))
	w.Eng.Run()

	if got[c1.Info.ID] != 1 {
		t.Fatalf("c1 handler: %v", got)
	}
	if fallback != 1 {
		t.Fatalf("fallback for unhandled conn: %d", fallback)
	}
}

// TestMuxChurnLeavesNothingBehind: a handler rides on its connection and
// Close drops it, so 512 Connect → Handle → Close cycles leave the mux
// holding nothing — every handler's captured sentinel is collected.
func TestMuxChurnLeavesNothingBehind(t *testing.T) {
	const n = 512
	a := arch.New("kopi", arch.WorldConfig{})
	w := a.World()
	proc := w.Kern.Spawn(w.Kern.AddUser(1, "a").UID, "app")
	m := NewMux(a)
	var collected atomic.Int64
	cycle := func(i int) { // its own frame, so no local outlives the cycle
		c, err := a.Connect(proc, w.Flow(uint16(1000+i), 7))
		if err != nil {
			t.Fatal(err)
		}
		sentinel := new([2]int) // 16 B, so not a tiny allocation (whose finalizer may never run)
		runtime.SetFinalizer(sentinel, func(*[2]int) { collected.Add(1) })
		m.Handle(c, func(*arch.Conn, *packet.Packet, sim.Time) { sentinel[0]++ })
		if err := a.Close(c); err != nil {
			t.Fatal(err)
		}
		if c.Deliver != nil {
			t.Fatal("Close left the connection's handler installed")
		}
	}
	for i := 0; i < n; i++ {
		cycle(i)
	}
	for i := 0; i < 50 && collected.Load() < n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != n {
		t.Fatalf("%d of %d closed connections' handlers collected", got, n)
	}
	runtime.KeepAlive(m)
}

func TestSenderOffersConfiguredRate(t *testing.T) {
	a := arch.New("bypass", arch.WorldConfig{})
	w := a.World()
	sink := NewSinkPeer()
	w.Peer = sink.Recv
	alice := w.Kern.AddUser(1, "a")
	proc := w.Kern.Spawn(alice.UID, "app")
	flow := w.Flow(1000, 7)
	c, err := a.Connect(proc, flow)
	if err != nil {
		t.Fatal(err)
	}
	s := &Sender{Arch: a, Conn: c, Flow: flow, Payload: 1460,
		Interval: IntervalFor(10, 1502), Until: sim.Time(2 * sim.Millisecond), Burst: 8}
	s.Start(0)
	w.Eng.Run()
	// 10 Gbps for 2 ms ≈ 2.5 MB; allow 10% for ramp.
	if sink.Bytes < 2_200_000 || sink.Bytes > 2_600_000 {
		t.Fatalf("sink received %d bytes", sink.Bytes)
	}
	if g := sink.Gbps(); g < 9 || g > 11 {
		t.Fatalf("sink rate %.2f", g)
	}
}

func TestProbeMeasuresRTT(t *testing.T) {
	a := arch.New("kopi", arch.WorldConfig{})
	w := a.World()
	w.Peer = EchoPeer(a)
	alice := w.Kern.AddUser(1, "a")
	proc := w.Kern.Spawn(alice.UID, "app")
	flow := w.Flow(1000, 7)
	c, err := a.Connect(proc, flow)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMux(a)
	done := false
	p := &Probe{Arch: a, Conn: c, Flow: flow, Payload: 64, Count: 50,
		Done: func() { done = true }}
	p.Start(m)
	w.Eng.Run()
	if !done {
		t.Fatal("probe must complete")
	}
	if p.Hist.Count() != 50 {
		t.Fatalf("samples = %d", p.Hist.Count())
	}
	// RTT must at least cover two wire propagations (2µs each way).
	if p.Hist.Min() < 4*sim.Microsecond {
		t.Fatalf("rtt min %v is below physics", p.Hist.Min())
	}
}

func TestInboundGenRoundRobin(t *testing.T) {
	a := arch.New("kopi", arch.WorldConfig{})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}
	alice := w.Kern.AddUser(1, "a")
	proc := w.Kern.Spawn(alice.UID, "app")
	flows := []packet.FlowKey{}
	conns := []*arch.Conn{}
	for i := 0; i < 3; i++ {
		f := w.Flow(uint16(1000+i), 7)
		c, err := a.Connect(proc, f)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
		conns = append(conns, c)
	}
	m := NewMux(a)
	counts := map[uint64]int{}
	for _, c := range conns {
		m.Handle(c, func(c *arch.Conn, _ *packet.Packet, _ sim.Time) { counts[c.Info.ID]++ })
	}
	g := &InboundGen{Arch: a, Flows: flows, Payload: 100,
		Interval: 10 * sim.Microsecond, Until: sim.Time(901 * sim.Microsecond)}
	g.Start(0)
	w.Eng.Run()
	if g.Sent != 91 {
		t.Fatalf("sent = %d", g.Sent)
	}
	if len(counts) != len(conns) {
		t.Fatalf("%d of %d conns received anything", len(counts), len(conns))
	}
	for id, n := range counts {
		if n < 30 || n > 31 {
			t.Fatalf("conn %d got %d packets, want ~30 (round robin)", id, n)
		}
	}
}
