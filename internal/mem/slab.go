package mem

import (
	"fmt"

	"norman/internal/sim"
)

// ConnSlab holds flyweight per-connection records (bench-only; see
// burst.go): structure-of-arrays state indexed by dense connID, ≤ 64 hot
// bytes per connection. Opening a connection is an array write, not an
// allocation.
type ConnSlab struct {
	// Hot per-connection arrays, indexed directly (s.RxBytes[id] += n).
	RxBytes []uint64   // payload bytes delivered in order
	LastAt  []sim.Time // virtual time of the last delivery
	RxPkts  []uint32   // packets delivered
	TxPkts  []uint32   // packets sourced (next send sequence)
	SeqNext []uint32   // next expected receive sequence
	OooPkts []uint32   // out-of-order or duplicate arrivals observed
	Tenant  []uint32   // owning tenant (0 = unattributed)
	Bucket  []uint16   // RSS bucket the connection hashes to
	State   []uint8    // ConnClosed / ConnOpen
}

// Connection states in ConnSlab.State.
const (
	ConnClosed uint8 = iota
	ConnOpen
)

// NewConnSlab returns a slab with capacity for n connections. baseAddr, the
// slab's simulated physical address, is not modelled.
func NewConnSlab(n int, baseAddr uint64) *ConnSlab {
	if n <= 0 {
		panic(fmt.Sprintf("mem: conn slab capacity %d", n))
	}
	return &ConnSlab{
		RxBytes: make([]uint64, n),
		LastAt:  make([]sim.Time, n),
		RxPkts:  make([]uint32, n),
		TxPkts:  make([]uint32, n),
		SeqNext: make([]uint32, n),
		OooPkts: make([]uint32, n),
		Tenant:  make([]uint32, n),
		Bucket:  make([]uint16, n),
		State:   make([]uint8, n),
	}
}

// Open marks a connection live in the given RSS bucket for the given
// tenant, resetting its state. It is an array write — no allocation.
func (s *ConnSlab) Open(id int, bucket uint16, tenant uint32) {
	s.RxBytes[id] = 0
	s.LastAt[id] = 0
	s.RxPkts[id] = 0
	s.TxPkts[id] = 0
	s.SeqNext[id] = 0
	s.OooPkts[id] = 0
	s.Tenant[id] = tenant
	s.Bucket[id] = bucket
	s.State[id] = ConnOpen
}
