package nic

import (
	"math/rand"
	"testing"

	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

// slowLink is a cost model that prices every length differently from the
// default: a 10 G wire, a slower PCIe link and a slower overlay clock.
func slowLink() timing.Model {
	m := timing.Default()
	m.WireBW = sim.Gbps(10)
	m.PCIeBW = sim.Gbps(63)
	m.NICClockHz = 150e6
	return m
}

// TestFrameCostsMatchModel holds the NIC's price list to the formulas it
// stands for, bit for bit: for every frame length up to a jumbo frame and for
// a longer descriptor, read in an order that makes rows collide and refill,
// the remembered wire, pipeline-occupancy and DMA costs — and the cost of
// every cycle count — are exactly what the model computes. A NIC's prices come
// from its own model, and remembering them allocates nothing.
func TestFrameCostsMatchModel(t *testing.T) {
	models := []timing.Model{timing.Default(), slowLink()}
	nics := make([]*NIC, len(models))
	for i, m := range models {
		nics[i] = New(Config{Engine: sim.NewEngine(), Model: m})
	}
	check := func(t *testing.T, n *NIC, m *timing.Model, frame int) {
		t.Helper()
		occ := sim.PerByte(frame, 2*m.WireBW)
		if min := m.NICCycles(1); occ < min {
			occ = min
		}
		got := *n.price(frame)
		want := framePrice{frame: frame, filled: true, wire: m.Wire(frame), pipe: occ, dma: m.DMA(64 + frame)}
		if got != want {
			t.Fatalf("price(%d) = %+v, want %+v", frame, got, want)
		}
	}
	for i := range models {
		n, m := nics[i], &models[i]
		for pass := 0; pass < 2; pass++ {
			for frame := 0; frame <= 9018; frame++ {
				check(t, n, m, frame)
				check(t, n, m, 65536)                    // the super-segment row, between every two lengths
				check(t, n, m, 9018-frame)               // a second length, often in the same row
				check(t, nics[1-i], &models[1-i], frame) // the other NIC keeps its own list
			}
			for k := -1; k <= 4*pricedCycles; k++ {
				if got, want := n.cycles(k), m.NICCycles(k); got != want {
					t.Fatalf("cycles(%d) = %v, want %v", k, got, want)
				}
			}
		}
	}
	if a, b := nics[0].price(1514), nics[1].price(1514); a.wire == b.wire || a.dma == b.dma || nics[0].cycles(9) == nics[1].cycles(9) {
		t.Fatalf("two NICs with different models share a price: %+v, %+v", *a, *b)
	}

	fresh := New(Config{Engine: sim.NewEngine(), Model: timing.Default()})
	if allocs := testing.AllocsPerRun(1, func() {
		for frame := 0; frame <= 9018; frame += 7 {
			fresh.price(frame)
			fresh.cycles(frame % 100)
		}
		fresh.price(65536)
	}); allocs != 0 {
		t.Fatalf("filling the price list allocates %.0f times, want 0", allocs)
	}
}

// TestRSSTableMatchesToeplitz checks the per-byte table form of the RSS hash
// against the bit-serial definition, under the default key and random ones.
func TestRSSTableMatchesToeplitz(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	key := DefaultRSSKey
	for round := 0; round < 8; round++ {
		tab := newRSSTable(key)
		for i := 0; i < 2000; i++ {
			var in [12]byte
			if i < len(in) {
				in[i] = 0xff // one input byte at a time: each table row on its own
			} else {
				rng.Read(in[:])
			}
			k := packet.FlowKey{
				Src:     packet.MakeIP(in[0], in[1], in[2], in[3]),
				Dst:     packet.MakeIP(in[4], in[5], in[6], in[7]),
				SrcPort: uint16(in[8])<<8 | uint16(in[9]),
				DstPort: uint16(in[10])<<8 | uint16(in[11]),
			}
			if got, want := tab.hash(k), toeplitz(key, in[:]); got != want {
				t.Fatalf("key %d: table hash of % x = %#x, Toeplitz says %#x", round, in, got, want)
			}
		}
		rng.Read(key[:])
	}
}
