package nic

import (
	"testing"

	"norman/internal/packet"
	"norman/internal/sim"
)

// toeplitz computes the RSS hash of input under key: for each set bit of
// the input (MSB first), XOR in the 32-bit window of the key starting at
// that bit position. It is the definition, for inputs of any length, that
// the datapath's rssTable is tested against.
func toeplitz(key [RSSKeySize]byte, input []byte) uint32 {
	var result uint32
	// The sliding 32-bit window over the key, starting at bit 0.
	window := uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
	keyBit := 32 // index of the next key bit to shift in
	for _, b := range input {
		for mask := byte(0x80); mask != 0; mask >>= 1 {
			if b&mask != 0 {
				result ^= window
			}
			// Slide the window one bit.
			next := byte(0)
			if keyBit/8 < RSSKeySize && key[keyBit/8]&(0x80>>(keyBit%8)) != 0 {
				next = 1
			}
			window = window<<1 | uint32(next)
			keyBit++
		}
	}
	return result
}

// TestToeplitzKnownVectors checks the hash against the published Microsoft
// RSS verification vectors (IPv4 with ports, default key).
func TestToeplitzKnownVectors(t *testing.T) {
	cases := []struct {
		src, dst     packet.IPv4
		sport, dport uint16
		want         uint32
	}{
		{packet.MakeIP(66, 9, 149, 187), packet.MakeIP(161, 142, 100, 80), 2794, 1766, 0x51ccc178},
		{packet.MakeIP(199, 92, 111, 2), packet.MakeIP(65, 69, 140, 83), 14230, 4739, 0xc626b0ea},
		{packet.MakeIP(24, 19, 198, 95), packet.MakeIP(12, 22, 207, 184), 12898, 38024, 0x5c2b394a},
		{packet.MakeIP(38, 27, 205, 30), packet.MakeIP(209, 142, 163, 6), 48228, 2217, 0xafc7327f},
		{packet.MakeIP(153, 39, 163, 191), packet.MakeIP(202, 188, 127, 2), 44251, 1303, 0x10e828a2},
	}
	for _, c := range cases {
		k := packet.FlowKey{Src: c.src, Dst: c.dst, SrcPort: c.sport, DstPort: c.dport, Proto: packet.ProtoTCP}
		if got := defaultRSSTable.hash(k); got != c.want {
			t.Errorf("hash(%v) = %#x, want %#x", k, got, c.want)
		}
	}
}

func TestRSSSteeringSpreadsFlows(t *testing.T) {
	n, eng := newNIC(1 << 20)
	q1, _ := n.OpenConn(1, packet.Meta{}, nil)
	q2, _ := n.OpenConn(2, packet.Meta{}, nil)
	if err := n.SetRSS(DefaultRSSKey, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	n.OnRxDeliver = func(c *Conn, _ sim.Time) { _, _ = c.RX.Pop() } // consume
	for i := 0; i < 64; i++ {
		n.DeliverFromWire(packet.NewUDP(packet.MAC{}, packet.MAC{},
			packet.MakeIP(10, 0, 0, 2), packet.MakeIP(10, 0, 0, 1),
			uint16(20000+i*7), 80, 64))
	}
	eng.Run()
	if q1.RxDelivered == 0 || q2.RxDelivered == 0 {
		t.Fatalf("hash should spread flows: q1=%d q2=%d", q1.RxDelivered, q2.RxDelivered)
	}
	if q1.RxDelivered+q2.RxDelivered != 64 {
		t.Fatalf("lost packets: %d+%d", q1.RxDelivered, q2.RxDelivered)
	}
}

func TestRSSSameFlowSameQueue(t *testing.T) {
	n, eng := newNIC(1 << 20)
	a, _ := n.OpenConn(1, packet.Meta{}, nil)
	b, _ := n.OpenConn(2, packet.Meta{}, nil)
	if err := n.SetRSS(DefaultRSSKey, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	n.OnRxDeliver = func(c *Conn, _ sim.Time) { _, _ = c.RX.Pop() } // consume
	for i := 0; i < 10; i++ {
		n.DeliverFromWire(packet.NewUDP(packet.MAC{}, packet.MAC{},
			packet.MakeIP(10, 0, 0, 2), packet.MakeIP(10, 0, 0, 1), 5555, 80, 64))
	}
	eng.Run()
	if a.RxDelivered != 0 && b.RxDelivered != 0 {
		t.Fatalf("one flow must stick to one queue: a=%d b=%d", a.RxDelivered, b.RxDelivered)
	}
	if a.RxDelivered+b.RxDelivered != 10 {
		t.Fatal("lost packets")
	}
}

func TestRSSExactSteeringWins(t *testing.T) {
	n, eng := newNIC(1 << 20)
	_, _ = n.OpenConn(1, packet.Meta{}, nil)
	pin, _ := n.OpenConn(2, packet.Meta{}, nil)
	if err := n.SetRSS(DefaultRSSKey, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	flow := packet.FlowKey{Src: packet.MakeIP(10, 0, 0, 2), Dst: packet.MakeIP(10, 0, 0, 1),
		SrcPort: 7777, DstPort: 80, Proto: packet.ProtoUDP}
	if err := n.SteerFlow(flow, 2); err != nil {
		t.Fatal(err)
	}
	n.DeliverFromWire(packet.NewUDP(packet.MAC{}, packet.MAC{},
		flow.Src, flow.Dst, flow.SrcPort, flow.DstPort, 64))
	eng.Run()
	if pin.RxDelivered != 1 {
		t.Fatal("exact flow-director entries take precedence over RSS")
	}
}

func TestRSSValidation(t *testing.T) {
	n, _ := newNIC(1 << 20)
	if err := n.SetRSS(DefaultRSSKey, []uint64{42}); err == nil {
		t.Fatal("unknown queue must be rejected")
	}
	_, _ = n.OpenConn(1, packet.Meta{}, nil)
	if err := n.SetRSS(DefaultRSSKey, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	// ARP (non-transport) frames land on queue 0.
	c, _ := n.Conn(1)
	eng := n.eng
	n.DeliverFromWire(packet.NewARPRequest(packet.MAC{}, 1, 2))
	eng.Run()
	if c.RxDelivered != 1 {
		t.Fatalf("non-transport frames go to queue 0: %d", c.RxDelivered)
	}
}
