package arch

import (
	"testing"

	"norman/internal/nic"
	"norman/internal/packet"
	"norman/internal/sim"
)

// frameExits has one row per exit where a world-built frame's journey ends,
// and one per way a frame reaches an exit without being the world's to take
// back. run drives frames out of a fresh world and returns the frames that
// must be back on its free list and those that must not.
var frameExits = []struct {
	exit string
	cfg  WorldConfig
	run  func(t *testing.T, x *exitWorld) (back, kept []*packet.Packet)
}{
	{"delivered", WorldConfig{}, func(t *testing.T, x *exitWorld) (back, kept []*packet.Packet) {
		p := x.w.UDPFrom(x.flow, 64)
		x.a.DeliverWire(p)
		x.w.Eng.Run()
		if x.c.Delivered != 1 {
			t.Fatalf("delivered %d of 1", x.c.Delivered)
		}
		return []*packet.Packet{p}, nil
	}},
	{"peer", WorldConfig{}, func(t *testing.T, x *exitWorld) (back, kept []*packet.Packet) {
		p := x.w.UDPTo(x.flow, 64)
		x.a.Send(x.c, p)
		x.w.Eng.Run()
		if x.onWire != 1 {
			t.Fatalf("peer received %d of 1", x.onWire)
		}
		return []*packet.Packet{p}, nil
	}},
	{"nic_drop", WorldConfig{}, func(t *testing.T, x *exitWorld) (back, kept []*packet.Packet) {
		x.w.NIC.SetLink(false)
		p := x.w.UDPFrom(x.flow, 64)
		x.a.DeliverWire(p)
		x.w.Eng.Run()
		if n := x.w.NIC.Dropped(nic.RxLink); n != 1 {
			t.Fatalf("%d link drops, want 1", n)
		}
		return []*packet.Packet{p}, nil
	}},
	// A ring architecture's host drops only on the way down: a nine-frame
	// burst into an eight-slot TX ring drops the last and sends the rest. A
	// software dataplane drops an arrival no socket owns.
	{"host_drop", WorldConfig{RingSize: 8}, func(t *testing.T, x *exitWorld) (back, kept []*packet.Packet) {
		if x.soft() != nil {
			p := x.w.UDPFrom(x.w.Flow(2000, 9), 64)
			x.a.DeliverWire(p)
			x.w.Eng.Run()
			if n := x.w.host.hostDropped(HostRxNoSocket); n != 1 {
				t.Fatalf("%d rx_nosocket drops, want 1", n)
			}
			return []*packet.Packet{p}, nil
		}
		burst := make([]*packet.Packet, 9)
		for i := range burst {
			burst[i] = x.w.UDPTo(x.flow, 64)
		}
		x.a.SendBatch(x.c, burst)
		x.w.Eng.Run()
		if n := x.w.host.hostDropped(HostTxRing); n != 1 || x.onWire != 8 {
			t.Fatalf("%d tx_ring drops and %d on the wire, want 1 and 8", n, x.onWire)
		}
		return burst, nil
	}},
	// An outage drop the slow path takes on is not the end of the frame.
	{"slow_path", WorldConfig{}, func(t *testing.T, x *exitWorld) (back, kept []*packet.Packet) {
		var punted *packet.Packet
		x.w.NIC.SlowPath = func(p *packet.Packet, _ sim.Time) { punted = p }
		x.w.NIC.ReloadBitstream(x.w.Now(), 0)
		p := x.w.UDPFrom(x.flow, 64)
		x.a.DeliverWire(p)
		x.w.Eng.Run()
		if n := x.w.NIC.Dropped(nic.RxOutage); n != 1 || punted != p {
			t.Fatalf("%d outage drops, slow path got %p, want 1 and %p", n, punted, p)
		}
		return nil, []*packet.Packet{p}
	}},
	// A frame the world did not build is the GC's at every exit.
	{"not_lent", WorldConfig{}, func(t *testing.T, x *exitWorld) (back, kept []*packet.Packet) {
		w, f := x.w, x.flow
		in := packet.NewUDP(w.PeerMAC, w.HostMAC, f.Dst, f.Src, f.DstPort, f.SrcPort, 64)
		out := packet.NewUDP(w.HostMAC, w.PeerMAC, f.Src, f.Dst, f.SrcPort, f.DstPort, 64)
		x.a.DeliverWire(in)
		x.a.Send(x.c, out)
		w.Eng.Run()
		if x.c.Delivered != 1 || x.onWire != 1 {
			t.Fatalf("delivered %d and sent %d, want 1 and 1", x.c.Delivered, x.onWire)
		}
		return nil, []*packet.Packet{in, out}
	}},
}

// TestFramesComeBackAtEachExit: on every architecture, a frame the world
// built goes back to its free list exactly once where its journey ends —
// delivered, received by the peer, dropped by the NIC or by the host — with
// its header pointers cleared, and only after the callee it was handed to has
// returned: the deliver and peer callbacks still see it whole. A frame the
// slow path takes on, or one the world did not build, never comes back, and
// recycling a frame twice panics.
func TestFramesComeBackAtEachExit(t *testing.T) {
	for _, row := range frameExits {
		for _, name := range Names() {
			t.Run(row.exit+"/"+name, func(t *testing.T) {
				x := newExitWorld(t, name, row.cfg)
				whole := func(where string, p *packet.Packet) {
					if p.IP == nil || p.UDP == nil {
						t.Errorf("%s sees a recycled frame (IP=%v UDP=%v)", where, p.IP, p.UDP)
					}
				}
				x.a.SetDeliver(func(_ *Conn, p *packet.Packet, _ sim.Time) { whole("the deliver callback", p) })
				x.w.Peer = func(p *packet.Packet, _ sim.Time) {
					x.onWire++
					whole("the peer", p)
				}
				back, kept := row.run(t, x)
				if err := x.w.Drain(); err != nil {
					t.Fatal(err)
				}
				if got := x.w.Frames.Len(); got != len(back) {
					t.Fatalf("%d frames back on the list, want %d", got, len(back))
				}
				for _, p := range back {
					if p.IP != nil || p.UDP != nil || p.TCP != nil {
						t.Fatalf("a recycled frame keeps its headers: IP=%v UDP=%v TCP=%v", p.IP, p.UDP, p.TCP)
					}
				}
				for _, p := range kept {
					whole("its holder", p)
				}
				if len(back) > 0 {
					defer func() {
						if recover() == nil {
							t.Error("recycling a frame twice did not panic")
						}
					}()
					x.w.Frames.Recycle(back[0])
				}
			})
		}
	}
}
