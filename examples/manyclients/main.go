// A server facing a fleet: 1500 remote clients each hold a connection to
// one KOPI host and send requests. This is the regime where the paper's §5
// open question bites — per-connection rings/state at the NIC — and where
// the process view still has to work: one netstat line per connection, one
// capture filter finds one client's traffic among 1500.
package main

import (
	"fmt"

	"norman"
	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/wire"
)

const nClients = 1500

func main() {
	sys := norman.New(norman.KOPI, norman.WithRingSize(16))
	a := sys.Arch()
	w := sys.World()
	net := wire.NewNetwork(a)

	clients, err := net.ClientFleet(nClients, nil)
	if err != nil {
		panic(err)
	}

	alice := sys.AddUser(1000, "alice")
	server := sys.Spawn(alice, "server")
	serverPID := server.PID()

	// One connection per client, all owned by the server process.
	conns := make([]*arch.Conn, nClients)
	for i, ep := range clients {
		flow := packet.FlowKey{Src: w.HostIP, Dst: ep.IP,
			SrcPort: 9000, DstPort: uint16(20000 + i), Proto: packet.ProtoUDP}
		c, err := a.Connect(w.Kern.Processes()[0], flow) // server process is pid[0]
		if err != nil {
			panic(fmt.Sprintf("client %d: %v", i, err))
		}
		conns[i] = c
	}

	// The server echoes every request back to its client.
	var served uint64
	a.SetDeliver(func(c *arch.Conn, p *packet.Packet, at sim.Time) {
		served++
		resp := packet.NewUDP(w.HostMAC, p.Eth.Src, p.IP.Dst, p.IP.Src,
			p.UDP.DstPort, p.UDP.SrcPort, 200)
		a.Send(c, resp)
	})

	// Alice watches exactly one client out of 1500.
	watchIP := clients[42].IP
	capture, err := sys.Tcpdump(fmt.Sprintf("host %s", watchIP))
	if err != nil {
		panic(err)
	}

	// Every client sends 4 requests, staggered: ~0.5 Mpps per round wave.
	// (Pack them tighter — e.g. 40ns apart — and the NIC's ingress FIFO
	// overflows on cold-descriptor DMA stalls: the E3 mechanism, visible in
	// the drop counters below.)
	for i, ep := range clients {
		for r := 0; r < 4; r++ {
			ep, i, r := ep, i, r
			sys.At(norman.Duration(i*2000+r*1000000)*norman.Nanosecond, func() {
				ep.SendUDP(uint16(20000+i), 9000, 100)
			})
		}
	}
	end := sys.Run()

	var responses uint64
	for _, ep := range clients {
		responses += ep.Received
	}
	fmt.Printf("clients            : %d (one NIC connection each)\n", nClients)
	fmt.Printf("virtual time       : %v\n", end)
	fmt.Printf("requests served    : %d / %d\n", served, nClients*4)
	fmt.Printf("responses received : %d\n", responses)

	used, budget := w.NIC.SRAM()
	fmt.Printf("nic sram           : %d / %d bytes for %d connections\n", used, budget, w.NIC.ConnCount())

	rows := sys.Netstat()
	fmt.Printf("netstat            : %d rows, all pid=%d (server)\n", len(rows), serverPID)

	fmt.Printf("nic: rxwire=%d dropped=%d (fifo=%d) ledger balanced=%t\n",
		w.NIC.RxWire, w.NIC.RxDropped(), w.NIC.RxFifoDrop, w.NIC.Balance() == nil)
	_, matched := capture.Counters()
	fmt.Printf("tcpdump host %s: %d frames (want 8 = 4 requests + 4 responses)\n", watchIP, matched)
}
