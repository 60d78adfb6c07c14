package arch

import (
	"strings"
	"testing"

	"norman/internal/filter"
	"norman/internal/mem"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// exitWorld is one traced architecture with a connected socket and a counting
// peer: what every host-exit case starts from.
type exitWorld struct {
	a      Arch
	w      *World
	c      *Conn
	flow   packet.FlowKey
	onWire int
}

func newExitWorld(t *testing.T, name string, cfg WorldConfig) *exitWorld {
	t.Helper()
	x := &exitWorld{a: New(name, cfg)}
	x.w = x.a.World()
	x.w.EnableTracing(2048)
	x.w.Peer = func(*packet.Packet, sim.Time) { x.onWire++ }
	proc := x.w.Kern.Spawn(x.w.Kern.AddUser(1, "u").UID, "p")
	x.flow = x.w.Flow(1000, 7)
	var err error
	if x.c, err = x.a.Connect(proc, x.flow); err != nil {
		t.Fatal(err)
	}
	return x
}

func (x *exitWorld) burst(n, payload int) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = x.w.UDPTo(x.flow, payload)
	}
	return pkts
}

// soft reaches the shared software dataplane of the two architectures that
// have one.
func (x *exitWorld) soft() *soft {
	switch a := x.a.(type) {
	case *KernelStack:
		return &a.soft
	case *Sidecar:
		return &a.soft
	}
	return nil
}

// fill pushes descriptors into r until it is full.
func (x *exitWorld) fill(r *mem.Ring) {
	for r.Push(mem.Desc{Pkt: x.w.UDPTo(x.flow, 64)}) == nil {
	}
}

// dropRule drops the world's UDP flow on hook h.
func (x *exitWorld) dropRule(t *testing.T, h filter.Hook) {
	t.Helper()
	if err := x.a.InstallRule(h, &filter.Rule{Proto: filter.Proto(packet.ProtoUDP), Action: filter.ActDrop}); err != nil {
		t.Fatal(err)
	}
}

var softArchs = []string{"kernelstack", "sidecar"}

// hostExits has, per host reason, the architectures that can produce it and a
// scenario that does; run returns how many packets it expects under the
// reason. A reason without a row fails TestHostExits.
var hostExits = [NumHostReasons]struct {
	archs []string
	cfg   WorldConfig
	run   func(t *testing.T, x *exitWorld) uint64
}{
	// Flooding a ring faster than it drains surfaces as counted drops: the
	// application's own TX ring (8 deep, 64 staged in one call), the
	// app-to-sidecar ring (1024 deep), the kernel's NIC queue.
	HostTxRing: {archs: Names(), cfg: WorldConfig{RingSize: 8}, run: func(t *testing.T, x *exitWorld) uint64 {
		switch x.a.(type) {
		case *KernelStack:
			// The stack is slower than the NIC, so its queue never fills by
			// itself: stage a full one.
			x.fill(&x.soft().q.TX)
			x.a.Send(x.c, x.w.UDPTo(x.flow, 64))
			return 1
		case *Sidecar:
			x.a.SendBatch(x.c, x.burst(1100, 64))
			return 1100 - 1024
		}
		x.a.SendBatch(x.c, x.burst(64, 1460))
		return 64 - 8
	}},
	HostTxFilter: {archs: softArchs, run: func(t *testing.T, x *exitWorld) uint64 {
		x.dropRule(t, filter.HookOutput)
		x.a.Send(x.c, x.w.UDPTo(x.flow, 64))
		x.a.SendBatch(x.c, x.burst(2, 64))
		return 3
	}},
	// A shaped qdisc with a four-packet queue refuses most of a 200-packet
	// burst; a replaced qdisc takes what it still queued with it.
	HostTxQdisc: {archs: softArchs, run: func(t *testing.T, x *exitWorld) uint64 {
		tbf := qos.NewTBF(4, 1e9/8, 3000)
		if err := x.a.SetQdisc(tbf, nil); err != nil {
			t.Fatal(err)
		}
		for _, p := range x.burst(200, 1000) {
			x.a.Send(x.c, p)
		}
		for i := 0; x.w.host.hostDropped(HostTxQdisc) == 0; i++ {
			if i == 1000 {
				t.Fatal("scenario broken: the shaped qdisc never refused a packet")
			}
			x.w.Eng.RunUntil(x.w.Eng.Now().Add(sim.Microsecond))
		}
		queued := tbf.Len()
		if err := x.a.SetQdisc(qos.NewPFIFO(64), nil); err != nil {
			t.Fatal(err)
		}
		x.w.Eng.Run()
		refused := x.w.host.hostDropped(HostTxQdisc)
		if refused <= uint64(queued) || refused >= 200 {
			t.Fatalf("tx_qdisc = %d of 200 sends (%d of them queued at the swap)", refused, queued)
		}
		return uint64(200 - x.onWire)
	}},
	// The crash catches packets at every depth of the kernel stack: queued in
	// the qdisc, between the syscall and the stack, and not yet sent.
	HostTxOutage: {archs: []string{"kernelstack"}, run: func(t *testing.T, x *exitWorld) uint64 {
		if err := x.a.SetQdisc(qos.NewTBF(64, 1e9/8, 3000), nil); err != nil {
			t.Fatal(err)
		}
		x.a.SendBatch(x.c, x.burst(10, 1000))
		x.w.Eng.RunUntil(x.w.Eng.Now().Add(25 * sim.Microsecond))
		queued := x.soft().sched.Len()
		x.a.Send(x.c, x.w.UDPTo(x.flow, 64)) // in the syscall when the crash lands
		x.a.(*KernelStack).CrashControlPlane()
		x.a.Send(x.c, x.w.UDPTo(x.flow, 64))
		x.a.SendBatch(x.c, x.burst(2, 64))
		x.w.Eng.Run()
		if queued == 0 || x.onWire+queued+4 != 14 {
			t.Fatalf("scenario broken: %d queued at the crash, %d of 14 on the wire", queued, x.onWire)
		}
		return uint64(queued + 4)
	}},
	HostRxOutage: {archs: []string{"kernelstack"}, run: func(t *testing.T, x *exitWorld) uint64 {
		x.a.(*KernelStack).CrashControlPlane()
		x.a.DeliverWire(x.w.UDPFrom(x.flow, 64))
		x.a.DeliverWire(x.w.UDPFrom(x.flow, 64))
		return 2
	}},
	HostRxFilter: {archs: softArchs, run: func(t *testing.T, x *exitWorld) uint64 {
		x.dropRule(t, filter.HookInput)
		x.a.DeliverWire(x.w.UDPFrom(x.flow, 64))
		x.a.DeliverWire(x.w.UDPFrom(x.w.Flow(2000, 9), 64)) // no socket either: the chain sees it first
		return 2
	}},
	HostRxNoSocket: {archs: softArchs, run: func(t *testing.T, x *exitWorld) uint64 {
		x.a.DeliverWire(x.w.UDPFrom(x.w.Flow(2000, 9), 64))
		return 1
	}},
	HostRxAppRing: {archs: []string{"sidecar"}, run: func(t *testing.T, x *exitWorld) uint64 {
		// The app consumes each crossing at once, so only a wedged consumer
		// fills this ring: stage one.
		x.fill(x.a.(*Sidecar).appRings[x.c.Info.ID].toApp)
		x.a.DeliverWire(x.w.UDPFrom(x.flow, 64))
		return 1
	}},
}

// TestHostExits is the exit test of the host's way out (exits.go), keyed by
// its reason table as TestJobsReturnOnEveryExit is by the NIC's: every reason,
// on every architecture that can produce it, moves its counter and only its
// counter, closes the packet's journey with a host/drop span naming it, and
// leaves both conservation laws — the NIC's and the host's — balanced.
func TestHostExits(t *testing.T) {
	for r := HostReason(0); r < NumHostReasons; r++ {
		row := hostExits[r]
		if row.run == nil {
			t.Errorf("host reason %s has no exit case", r)
			continue
		}
		for _, name := range row.archs {
			r := r
			t.Run(name+"/"+r.String(), func(t *testing.T) {
				x := newExitWorld(t, name, row.cfg)
				delivered := 0
				x.a.SetDeliver(func(*Conn, *packet.Packet, sim.Time) { delivered++ })
				want := row.run(t, x)
				if err := x.w.Drain(); err != nil {
					t.Fatal(err)
				}
				for o := HostReason(0); o < NumHostReasons; o++ {
					if got := x.w.host.hostDropped(o); o == r && got != want || o != r && got != 0 {
						t.Errorf("%s = %d, want %d of %s only", o, got, want, r)
					}
				}
				if want == 0 || delivered != 0 {
					t.Fatalf("scenario broken: expects %d drops, delivered %d", want, delivered)
				}
				spans := 0
				for _, id := range x.w.Tracer.IDs() {
					for _, ev := range x.w.Tracer.Trace(id) {
						if ev.Layer == "host" && ev.Point == "drop" {
							spans++
							if !strings.HasPrefix(ev.Note, "reason="+r.String()+" conn=") {
								t.Errorf("host/drop span %q, want reason=%s", ev.Note, r)
							}
						}
					}
				}
				if spans == 0 {
					t.Errorf("no host/drop span for %s", r)
				}
			})
		}
	}
}

// TestSpansSurviveTheSocket: replacing a packet's metadata with the kernel's
// trusted view must not orphan its journey. On every architecture whose
// kernel sees the packet, an inbound frame to a connected socket is traced to
// the upcall and an outbound one from the send call to the wire. The trace ID
// is read where the journey ends — in the upcall, at the peer — because the
// frame is the world's again once they return.
func TestSpansSurviveTheSocket(t *testing.T) {
	for _, name := range []string{"kernelstack", "sidecar", "kopi"} {
		t.Run(name, func(t *testing.T) {
			x := newExitWorld(t, name, WorldConfig{})
			var delivered, wired uint64 // trace IDs seen at the two exits
			x.a.SetDeliver(func(_ *Conn, p *packet.Packet, _ sim.Time) { delivered = p.Meta.Trace })
			x.w.Peer = func(p *packet.Packet, _ sim.Time) { wired = p.Meta.Trace }
			journey := func(id *uint64) (first, last string) {
				x.w.Eng.Run()
				evs := x.w.Tracer.Trace(*id)
				if len(evs) == 0 {
					t.Fatalf("packet has no journey (trace id %d)", *id)
				}
				return evs[0].Layer + " " + evs[0].Point, evs[len(evs)-1].Layer + " " + evs[len(evs)-1].Point
			}
			x.a.DeliverWire(x.w.UDPFrom(x.flow, 64))
			if _, last := journey(&delivered); last != "host rx_deliver" {
				t.Errorf("inbound journey ends at %q, want host rx_deliver", last)
			}
			x.a.Send(x.c, x.w.UDPTo(x.flow, 64))
			if first, last := journey(&wired); first != "host syscall_send" || last != "wire tx" {
				t.Errorf("outbound journey runs %q … %q, want host syscall_send … wire tx", first, last)
			}
		})
	}
}

// decliner is a mutant qdisc: it reports its backlog ready now and then
// declines every Dequeue, at its own ReadyAt too.
type decliner struct{ *qos.PFIFO }

func (decliner) Dequeue(sim.Time) (*packet.Packet, bool) { return nil, false }

// TestDrainCatchesStrandedQdisc: neither pump retries, so a qdisc that breaks
// the ReadyAt contract keeps its backlog on a drained engine, and Drain
// fails, through the NIC's idle law where the qdisc sits on the NIC and the
// host's where it sits in software.
func TestDrainCatchesStrandedQdisc(t *testing.T) {
	for _, name := range []string{"kopi", "hypervisor", "kernelstack", "sidecar"} {
		t.Run(name, func(t *testing.T) {
			x := newExitWorld(t, name, WorldConfig{})
			if err := x.a.SetQdisc(decliner{qos.NewPFIFO(64)}, nil); err != nil {
				t.Fatal(err)
			}
			x.a.SendBatch(x.c, x.burst(3, 64))
			err := x.w.Drain()
			if err == nil || !strings.Contains(err.Error(), "qdisc") {
				t.Fatalf("Drain = %v, want the idle law to report the stranded backlog", err)
			}
		})
	}
}

// TestStalePumpRearms: a shaper that already sent, installed again while the
// pump sleeps on the qdisc it replaces, is not ready when that pump wakes;
// the pump arms it at its own instant instead of leaving its packet behind.
func TestStalePumpRearms(t *testing.T) {
	for _, name := range softArchs {
		t.Run(name, func(t *testing.T) {
			x := newExitWorld(t, name, WorldConfig{})
			shaper := qos.NewTBF(64, 1e5, 1514) // 1442B frames; refilling one takes 14ms
			if err := x.a.SetQdisc(shaper, nil); err != nil {
				t.Fatal(err)
			}
			x.a.Send(x.c, x.w.UDPTo(x.flow, 1400))
			x.w.Eng.Run()
			if err := x.a.SetQdisc(qos.NewTBF(64, 1e6, 1514), nil); err != nil {
				t.Fatal(err)
			}
			x.a.SendBatch(x.c, x.burst(8, 1400))
			x.w.Eng.RunUntil(x.w.Eng.Now().Add(50 * sim.Microsecond)) // the pump sleeps ~1.4ms
			if err := x.a.SetQdisc(shaper, nil); err != nil {
				t.Fatal(err)
			}
			x.a.Send(x.c, x.w.UDPTo(x.flow, 1400))
			if err := x.w.Drain(); err != nil {
				t.Fatal(err)
			}
			if x.onWire != 3 || x.w.host.hostDropped(HostTxQdisc) != 7 {
				t.Fatalf("%d on the wire, %d under tx_qdisc; want 3 and 7", x.onWire, x.w.host.hostDropped(HostTxQdisc))
			}
		})
	}
}
