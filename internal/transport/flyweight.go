package transport

import (
	"norman/internal/mem"
	"norman/internal/sim"
)

// Flyweight transport: per-connection receive state in a mem.ConnSlab —
// dense arrays, ≤ 64 hot bytes per connection — instead of a Stream object
// per connection, written as free functions over the slab so the receive
// path stays allocation-free. Bench-only: bench/probe.go times FlyweightRx
// (probe.transport.flyweight_rx_ns) and nothing else in the tree calls it.
// It stays, with that one caller, until the ROADMAP item "Unfreeze the
// benchmark" retires the probe.

// FlyweightOpen admits a connection into a bucket for a tenant and resets
// its record.
func FlyweightOpen(s *mem.ConnSlab, id int, bucket uint16, tenant uint32) {
	s.Open(id, bucket, tenant)
}

// FlyweightRx advances a connection's receive state for one delivered
// packet and reports whether the payload counts as goodput. In-order
// arrivals advance SeqNext; a gap is accepted forward (loss already showed
// up as a ring reject elsewhere — the flyweight records it and resumes at
// the new head); a stale sequence is a duplicate and is dropped. Array
// reads and writes only: no allocation on any path.
func FlyweightRx(s *mem.ConnSlab, id int, seq uint32, payload int, at sim.Time) bool {
	if s.State[id] != mem.ConnOpen {
		return false
	}
	switch next := s.SeqNext[id]; {
	case seq == next:
		s.SeqNext[id] = seq + 1
	case seq > next:
		s.OooPkts[id]++
		s.SeqNext[id] = seq + 1
	default:
		s.OooPkts[id]++
		return false
	}
	s.RxPkts[id]++
	s.RxBytes[id] += uint64(payload)
	s.LastAt[id] = at
	return true
}
