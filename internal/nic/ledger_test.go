package nic

import (
	"math/rand"
	"testing"

	"norman/internal/mem"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// FuzzNICLedger interleaves traffic with every control operation that can
// change where a frame ends up — link flaps, ingress pauses, generation
// flips, bitstream reloads, DMA stalls, FIFO resizes, shedding, connection
// churn, qdisc swaps — and holds the NIC to Balance() after every step and to
// an empty datapath after the final drain, under each service discipline. The
// first byte picks the world (egress qdisc, slow path, flow cache); each
// following byte is one operation, its high bits the operand.
func FuzzNICLedger(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 2, 13, 3, 0, 13, 3, 0, 13})                              // link flap around traffic
	f.Add([]byte{0x01, 4, 0, 0, 0, 0x40, 5, 6, 4, 13, 7, 13})                         // pause, flip, resume, roll back
	f.Add([]byte{0x03, 2, 2, 0x42, 8, 2, 14, 13, 0x2d})                               // tx through a qdisc across an outage
	f.Add([]byte{0x05, 9, 0x2a, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 13, 0xea, 13})       // stall + clamp with a slow path
	f.Add([]byte{0x04, 1, 1, 11, 0, 0, 12, 0, 0, 13, 12, 0, 13})                      // slow path, shedding, close and reopen
	f.Add([]byte{0x0a, 4, 0, 0, 0, 8, 13, 0, 2, 0x4d})                                // reload empties the pause buffer
	f.Add([]byte{0x0f, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 2, 0x8d}) // one of everything
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 24; i++ {
		ops := make([]byte, 192)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Add([]byte{0x02, 0x72, 0x72, 0x0d, 0x0f, 0x0d, 0x72, 0x1f, 0x2f, 13}) // swap a backlogged qdisc, then to none and back

	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, d := range disciplines {
			ledgerOps(t, d.weights, ops)
		}
	})
}

// ledgerOps runs one FuzzNICLedger op stream on a fresh NIC under the
// discipline the weights select.
func ledgerOps(t *testing.T, weights map[uint32]int, ops []byte) {
	if len(ops) == 0 {
		return
	}
	world := ops[0]
	n, eng, c := jobWorld(t, weights)
	if world&2 != 0 {
		n.SetScheduler(qos.NewPFIFO(4))
	}
	if world&4 != 0 {
		n.SlowPath = func(*packet.Packet, sim.Time) {}
	}
	if world&8 != 0 {
		if err := n.EnableFlowCache(16); err != nil {
			t.Fatal(err)
		}
		load(t, n, Ingress, "ldf r0, dst_port\njeq r0, 82, bad\npass\nbad:\ndrop\n")
	}
	n.OnRxDeliver = func(c *Conn, _ sim.Time) {
		if c.RX.Len() > 4 { // a slow consumer: rings fill under bursts
			_, _ = c.RX.Pop()
		}
	}
	linkUp, shedding := true, false

	for i, op := range ops[1:] {
		arg := int(op >> 4)
		switch op & 0x0f {
		case 0:
			n.DeliverFromWire(udpTo(80))
		case 1:
			n.DeliverFromWire(udpTo(81 + uint16(arg&1))) // unsteered; 82 is the ACL's blocked port
		case 2:
			for k := 0; k <= arg&3 && !c.TX.Full(); k++ {
				p := udpTo(80)
				if arg&4 != 0 {
					p = packet.NewTCP(packet.MAC{1}, packet.MAC{2}, 1, 2, 3, 4, packet.TCPAck, 600)
				}
				_ = c.TX.Push(mem.Desc{Pkt: p})
			}
			n.DoorbellTx(c)
		case 3:
			linkUp = !linkUp
			n.SetLink(linkUp)
		case 4:
			if n.RxPaused() {
				_ = n.ResumeRx()
			} else {
				_ = n.PauseRx(1 + arg&3)
			}
		case 5:
			src := "pass\n"
			if arg&1 != 0 {
				src = dropPort80
			}
			_ = n.StageGeneration(eng.Now(), assemble(t, "fuzzgen", src), nil)
		case 6:
			_, _ = n.ActivateStaged(eng.Now())
		case 7:
			if arg&1 != 0 {
				_ = n.CommitGeneration(eng.Now())
			} else {
				_ = n.RollbackGeneration(eng.Now())
			}
		case 8:
			n.ReloadBitstream(eng.Now(), sim.Duration(1+arg)*sim.Microsecond)
		case 9:
			n.StallDMA(sim.Duration(1+arg) * sim.Microsecond)
		case 10:
			depth := 128
			if arg != 0 {
				depth = arg
			}
			n.SetRxWindow(depth)
		case 11:
			shedding = !shedding
			if shedding {
				n.SetShedPolicy(func(*Conn, *packet.Packet) bool { return true })
			} else {
				n.SetShedPolicy(nil)
			}
		case 12:
			if n.CloseConn(1) != nil {
				k, _ := udpTo(80).Flow()
				c, _ = n.OpenConn(1, packet.Meta{UID: 1, Tenant: 1, TrustedMeta: true}, nil)
				_ = n.SteerFlow(k, 1)
			}
		case 13:
			eng.RunUntil(eng.Now().Add(sim.Duration(1+arg) * 200 * sim.Nanosecond))
		case 14:
			n.InjectTx(udpTo(9))
		case 15:
			// Swap the egress qdisc under whatever it holds: a shaper that
			// keeps a backlog, a short FIFO, or none.
			switch arg % 3 {
			case 0:
				n.SetScheduler(qos.NewTBF(qos.NewPFIFO(64), 1e6, 1514))
			case 1:
				n.SetScheduler(qos.NewPFIFO(4))
			case 2:
				n.SetScheduler(nil)
			}
		}
		if err := n.Balance(); err != nil {
			t.Fatalf("after op %d (%#02x): %v", i, op, err)
		}
	}

	if n.RxPaused() {
		_ = n.ResumeRx()
	}
	eng.Run()
	if out := n.JobsOutstanding(); out != 0 {
		t.Fatalf("%d datapath jobs outstanding on a drained engine", out)
	}
	if err := n.Balance(); err != nil {
		t.Fatalf("after the drain: %v", err)
	}
}

// TestQdiscSwapCountsBacklog: a qdisc replaced while it holds frames takes
// them with it, and the ledger says so — they are never sent, so they must
// leave tx_ahead and be counted as qdisc refusals, whether the swap comes
// through SetScheduler or RestoreConfig, and a dequeue left pending against a
// qdisc that was removed outright must find nothing to do.
func TestQdiscSwapCountsBacklog(t *testing.T) {
	for _, via := range []string{"SetScheduler", "RestoreConfig", "removed"} {
		for _, d := range disciplines {
			t.Run(via+"/"+d.name, func(t *testing.T) {
				n, eng, c := jobWorld(t, d.weights)
				n.CommitConfig(eng.Now()) // known-good: no qdisc
				n.SetScheduler(qos.NewTBF(qos.NewPFIFO(64), 1e6, 1514))
				for i := 0; i < 8; i++ {
					p := packet.NewUDP(packet.MAC{1}, packet.MAC{2}, 1, 2, 3, 4, 1400)
					if err := c.TX.Push(mem.Desc{Pkt: p}); err != nil {
						t.Fatal(err)
					}
				}
				n.DoorbellTx(c)
				eng.RunUntil(sim.Time(50 * sim.Microsecond)) // the bucket covers one frame
				if n.TxFrames != 1 || n.Scheduler().Len() != 7 {
					t.Fatalf("before the swap: %d sent, %d queued; want 1 and 7", n.TxFrames, n.Scheduler().Len())
				}
				switch via {
				case "SetScheduler":
					n.SetScheduler(qos.NewPFIFO(64))
				case "RestoreConfig":
					if _, err := n.RestoreConfig(n.LastGoodConfig()); err != nil {
						t.Fatal(err)
					}
				case "removed": // the pending dequeue finds no qdisc
					n.SetScheduler(nil)
				}
				if err := n.Balance(); err != nil {
					t.Fatalf("right after the swap: %v", err)
				}
				drained(t, n, eng)
				if err := n.Balance(); err != nil {
					t.Fatal(err)
				}
				if n.TxFrames != 1 || n.txRefused != 7 {
					t.Fatalf("%d sent, %d refused; want 1 and 7", n.TxFrames, n.txRefused)
				}
			})
		}
	}
}
