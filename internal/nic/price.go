package nic

import "norman/internal/sim"

// This file is the NIC's price list (DESIGN.md §8, "One resolution and one
// price list per frame"). What a frame costs on the wire, in the pipeline and
// across PCIe depends only on its length, and what a program run adds only on
// its cycle count; the cost model is read-only once the NIC is built, so each
// price is worked out once per NIC and read back on every later frame. A price
// is always produced by the formula it stands for — never by a precomputed
// reciprocal — so the sim.Duration is the same one, bit for bit.

// framePrice is what one frame length costs on the three resources priced by
// length.
type framePrice struct {
	frame  int
	filled bool
	wire   sim.Duration // serialization on the link
	pipe   sim.Duration // pipeline occupancy
	dma    sim.Duration // one descriptor plus the payload across PCIe
}

const (
	// priceRows direct-mapped rows hold the handful of frame lengths a
	// workload uses; two lengths that share a row only re-run the formulas.
	priceRows = 8
	// pricedFrameMax is the longest frame the rows take (a jumbo frame). A TSO
	// super-segment is priced in the one row past them, so a sender's 64 KB
	// descriptors do not evict the lengths every wire frame asks for.
	pricedFrameMax = 9216
	// pricedCycles bounds the memoized cycle counts: a chain's run costs tens
	// of cycles, and anything longer takes the formula.
	pricedCycles = 64
)

// price returns what a frame of the given length costs.
func (n *NIC) price(frame int) *framePrice {
	r := &n.prices[priceRows]
	if uint(frame) <= pricedFrameMax {
		r = &n.prices[frame%priceRows]
	}
	if !r.filled || r.frame != frame {
		*r = framePrice{
			frame:  frame,
			filled: true,
			wire:   n.model.Wire(frame),
			pipe:   n.pipeOccupancy(frame),
			dma:    n.model.DMA(64 + frame),
		}
	}
	return r
}

// pipeOccupancy is the pipeline's per-frame occupancy: the datapath is twice
// wire-width, so the pipeline itself never throttles below line rate; overlay
// programs add latency but, being pipelined, no occupancy (§4.1's on-path
// FPGA assumption — this is the charitable hardware model, and E1/E4 verify
// the consequence that interposition costs latency, not throughput).
func (n *NIC) pipeOccupancy(frameLen int) sim.Duration {
	occ := sim.PerByte(frameLen, 2*n.model.WireBW)
	if min := n.model.NICCycles(1); occ < min {
		occ = min
	}
	return occ
}

// cycles converts an overlay-clock cycle count to a duration.
func (n *NIC) cycles(k int) sim.Duration {
	if uint(k) >= pricedCycles {
		return n.model.NICCycles(k)
	}
	// A zero slot is an unfilled one: only k = 0 costs nothing, and asking
	// the formula for it again is as cheap as remembering it.
	if n.cyclePrices[k] == 0 {
		n.cyclePrices[k] = n.model.NICCycles(k)
	}
	return n.cyclePrices[k]
}
