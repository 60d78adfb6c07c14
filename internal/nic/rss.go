package nic

import (
	"fmt"

	"norman/internal/packet"
)

// Receive-side scaling: when a frame matches no exact steering entry, the
// NIC can spread it over a set of queues by Toeplitz-hashing the 4-tuple —
// how multi-queue NICs (and the paper's §2 "RSS custom hashing to partition
// the NIC into virtual interfaces") direct flows without per-flow state.

// RSSKeySize is the secret-key length used by the Toeplitz hash.
const RSSKeySize = 40

// DefaultRSSKey is the well-known Microsoft verification key; real
// deployments randomize it per boot.
var DefaultRSSKey = [RSSKeySize]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// rssTable is the Toeplitz hash of the 12-byte IPv4 transport input under one
// key, unrolled by input byte (rss_test.go holds the bit-serial definition it
// is tested against). The hash is linear over XOR, so it is the XOR
// of each input byte's own contribution, and a byte at position i can only
// contribute one of 256 values: row i holds them. Hashing a flow is then 12
// table reads where the bit-serial form shifts and tests 96 times.
type rssTable [12][256]uint32

func newRSSTable(key [RSSKeySize]byte) *rssTable {
	t := new(rssTable)
	for i := range t {
		// The 32-bit key window at bit 8i+b is the top half of these 64 key
		// bits shifted left by b.
		var bits uint64
		for _, kb := range key[i : i+8] {
			bits = bits<<8 | uint64(kb)
		}
		for v := 1; v < 256; v++ {
			for b := 0; b < 8; b++ {
				if v&(0x80>>b) != 0 {
					t[i][v] ^= uint32(bits << b >> 32)
				}
			}
		}
	}
	return t
}

// hash returns the RSS hash of k: src addr, dst addr, src port, dst port, all
// network order.
func (t *rssTable) hash(k packet.FlowKey) uint32 {
	return t[0][byte(k.Src>>24)] ^ t[1][byte(k.Src>>16)] ^ t[2][byte(k.Src>>8)] ^ t[3][byte(k.Src)] ^
		t[4][byte(k.Dst>>24)] ^ t[5][byte(k.Dst>>16)] ^ t[6][byte(k.Dst>>8)] ^ t[7][byte(k.Dst)] ^
		t[8][byte(k.SrcPort>>8)] ^ t[9][byte(k.SrcPort)] ^
		t[10][byte(k.DstPort>>8)] ^ t[11][byte(k.DstPort)]
}

// defaultRSSTable is DefaultRSSKey's table, shared by every NIC that keeps the
// well-known key.
var defaultRSSTable = newRSSTable(DefaultRSSKey)

// SetRSS enables hash-based steering over the given queues (connection ids)
// for traffic that matches no exact steering entry. Passing an empty slice
// disables RSS. Each indirection-table entry consumes SRAM.
func (n *NIC) SetRSS(key [RSSKeySize]byte, queues []uint64) error {
	for _, id := range queues {
		if _, ok := n.conns[id]; !ok {
			return fmt.Errorf("nic: rss queue %d: %w", id, ErrNoSuchConn)
		}
	}
	delta := (len(queues) - len(n.rssQueues)) * 8
	used, budget := n.SRAM()
	if used+delta > budget {
		return fmt.Errorf("%w: rss indirection table", ErrSRAMExhausted)
	}
	n.sramUsed += delta
	n.rss = defaultRSSTable
	if key != DefaultRSSKey {
		n.rss = newRSSTable(key)
	}
	n.rssQueues = append([]uint64(nil), queues...)
	return nil
}

// rssSteer resolves a connection via the RSS indirection table, or nil.
func (n *NIC) rssSteer(j *job) *Conn {
	if len(n.rssQueues) == 0 {
		return nil
	}
	if !j.flow {
		// Non-transport frames (e.g. ARP) land on queue 0, as hardware
		// defaults do.
		if c, ok := n.conns[n.rssQueues[0]]; ok {
			return c
		}
		return nil
	}
	h := n.rss.hash(j.key)
	if c, ok := n.conns[n.rssQueues[h%uint32(len(n.rssQueues))]]; ok {
		return c
	}
	return nil
}
