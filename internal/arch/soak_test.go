package arch

import (
	"testing"

	"norman/internal/filter"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// TestSoakConservation runs a mixed workload — many connections, bursty
// bidirectional traffic, firewall rules, a WFQ scheduler, a capture tap —
// and then audits packet conservation: every frame that entered the NIC is
// either delivered, counted in a specific drop counter, or still sitting in
// a ring. Unaccounted loss means broken bookkeeping somewhere in the
// dataplane.
func TestSoakConservation(t *testing.T) {
	for _, name := range []string{"kopi", "bypass", "hypervisor"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a := New(name, WorldConfig{RingSize: 32})
			w := a.World()

			var wireOut uint64
			w.Peer = func(p *packet.Packet, at sim.Time) { wireOut++ }

			u := w.Kern.AddUser(1, "u")
			proc := w.Kern.Spawn(u.UID, "srv")

			const nConns = 64
			conns := make([]*Conn, nConns)
			for i := range conns {
				c, err := a.Connect(proc, w.Flow(uint16(5000+i), 7))
				if err != nil {
					t.Fatal(err)
				}
				conns[i] = c
			}

			// Policies where the architecture supports them.
			_ = a.InstallRule(filter.HookInput, &filter.Rule{
				Proto: filter.Proto(packet.ProtoUDP), DstPorts: filter.Port(5007),
				Action: filter.ActDrop,
			})
			wfq := qos.NewWFQ(512)
			wfq.SetWeight(1, 2)
			_ = a.SetQdisc(wfq, func(p *packet.Packet) uint32 { return p.Meta.Class })
			_, _ = a.AttachTap(udpFilter(t))

			var appDelivered uint64
			a.SetDeliver(func(*Conn, *packet.Packet, sim.Time) { appDelivered++ })

			rng := sim.NewRNG(99, "soak"+name)
			// Outbound bursts + inbound bursts, randomly interleaved.
			for i := 0; i < 3000; i++ {
				c := conns[rng.Intn(nConns)]
				at := sim.Time(rng.Intn(3_000_000)) * sim.Time(sim.Nanosecond)
				if rng.Intn(2) == 0 {
					w.Eng.At(at, func() {
						a.Send(c, w.UDPTo(c.Info.Flow, 64+rng.Intn(1200)))
					})
				} else {
					w.Eng.At(at, func() {
						a.DeliverWire(w.UDPFrom(c.Info.Flow, 64+rng.Intn(1200)))
					})
				}
			}
			// Wire → ring and fetched descriptor → wire conservation is the
			// NIC's own law; the checks below extend it to the host's ends.
			if err := w.Drain(); err != nil {
				t.Fatal(err)
			}

			n := w.NIC
			var delivered, ringResidue uint64
			for _, c := range conns {
				delivered += c.NC.RxDelivered
				ringResidue += uint64(c.NC.RX.Len())
			}
			// Poll-mode apps consume everything delivered to the rings.
			if appDelivered+ringResidue != delivered {
				t.Fatalf("app-side conservation: delivered=%d consumed=%d residue=%d",
					delivered, appDelivered, ringResidue)
			}
			// TX conservation: everything popped from TX rings either hit
			// the wire, was dropped by a verdict, or is buffered in the
			// scheduler awaiting a wire slot (none, after Run drains).
			var txPushed, txResidue uint64
			for _, c := range conns {
				prod, _, _ := c.NC.TX.Counters()
				txPushed += prod
				txResidue += uint64(c.NC.TX.Len())
			}
			if got := n.TxFrames + n.TxDropVerdict + txResidue + uint64(wfq.Len()); got != txPushed {
				t.Fatalf("TX conservation broken: pushed=%d accounted=%d (tx=%d verdict=%d residue=%d sched=%d)",
					txPushed, got, n.TxFrames, n.TxDropVerdict, txResidue, wfq.Len())
			}
			if wireOut == 0 || appDelivered == 0 {
				t.Fatal("soak produced no traffic")
			}
		})
	}
}
