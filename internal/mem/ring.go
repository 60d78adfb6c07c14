// Package mem provides the host-memory substrate shared between
// applications and the NIC: pinned per-connection descriptor rings addressed
// by head/tail "MMIO" registers (§4.3 of the paper), a simulated physical
// address allocator so the cache model can track ring working sets, and the
// shared notification queues that restore blocking I/O under kernel bypass.
package mem

import (
	"errors"

	"norman/internal/packet"
	"norman/internal/sim"
)

// Ring errors.
var (
	ErrRingFull  = errors.New("mem: ring full")
	ErrRingEmpty = errors.New("mem: ring empty")
)

// Desc is one ring descriptor: a packet and its produced timestamp.
type Desc struct {
	Pkt      *packet.Packet
	Produced sim.Time
}

// DescSize is the simulated footprint of one descriptor: one cache line, as
// hardware rings use.
const DescSize = 64

// Ring is a single-producer single-consumer descriptor ring, the structure
// an application shares with the NIC for each connection. Capacity must be a
// power of two. Head and tail mimic the MMIO-visible pointers: head is the
// producer index, tail the consumer index; both only ever count up, so they
// are also the produced and consumed totals.
type Ring struct {
	entries []Desc
	mask    uint64
	head    uint64 // next slot to produce into
	tail    uint64 // next slot to consume from

	baseAddr uint64 // simulated physical address of the descriptor array

	dropped uint64
}

// NewRing creates a ring with the given power-of-two capacity, mapped at the
// given simulated physical address.
func NewRing(capacity int, baseAddr uint64) *Ring {
	r := MakeRing(make([]Desc, capacity), baseAddr)
	return &r
}

// MakeRing returns a ring over slots, whose length is its power-of-two
// capacity, mapped at the given simulated physical address. It lets an owner
// keep the ring inside its own record and carve several rings out of one
// slot array.
func MakeRing(slots []Desc, baseAddr uint64) Ring {
	capacity := len(slots)
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("mem: ring capacity must be a positive power of two")
	}
	return Ring{entries: slots, mask: uint64(capacity - 1), baseAddr: baseAddr}
}

// Cap returns the ring capacity in descriptors.
func (r *Ring) Cap() int { return len(r.entries) }

// Len returns the number of occupied descriptors.
func (r *Ring) Len() int { return int(r.head - r.tail) }

// Full reports whether the ring has no free descriptors.
func (r *Ring) Full() bool { return r.head-r.tail == uint64(len(r.entries)) }

// Empty reports whether the ring has no occupied descriptors.
func (r *Ring) Empty() bool { return r.head == r.tail }

// Push enqueues a descriptor, or returns ErrRingFull (the caller decides
// whether that is a drop or backpressure).
func (r *Ring) Push(d Desc) error {
	if r.Full() {
		r.dropped++
		return ErrRingFull
	}
	r.entries[r.head&r.mask] = d
	r.head++
	return nil
}

// Pop dequeues the oldest descriptor.
func (r *Ring) Pop() (Desc, error) {
	if r.Empty() {
		return Desc{}, ErrRingEmpty
	}
	d := r.entries[r.tail&r.mask]
	r.entries[r.tail&r.mask] = Desc{} // release reference
	r.tail++
	return d, nil
}

// Peek returns the oldest descriptor without consuming it.
func (r *Ring) Peek() (Desc, error) {
	if r.Empty() {
		return Desc{}, ErrRingEmpty
	}
	return r.entries[r.tail&r.mask], nil
}

// SlotAddr returns the simulated physical address of the descriptor slot the
// given logical index occupies; the cache model uses it to charge hits and
// misses against the ring's real footprint.
func (r *Ring) SlotAddr(index uint64) uint64 {
	return r.baseAddr + (index&r.mask)*DescSize
}

// Head returns the producer counter (monotonic, unmasked).
func (r *Ring) Head() uint64 { return r.head }

// Tail returns the consumer counter (monotonic, unmasked).
func (r *Ring) Tail() uint64 { return r.tail }

// HeadAddr returns the address of the next slot to be produced into.
func (r *Ring) HeadAddr() uint64 { return r.SlotAddr(r.head) }

// TailAddr returns the address of the next slot to be consumed from.
func (r *Ring) TailAddr() uint64 { return r.SlotAddr(r.tail) }

// Counters returns cumulative produced/consumed/dropped descriptor counts.
func (r *Ring) Counters() (produced, consumed, dropped uint64) {
	return r.head, r.tail, r.dropped
}

// AboveHigh reports whether occupancy has reached the high watermark, 3/4 of
// capacity in whole descriptors: the overload watchdog counts such rings as
// pressure. A one-slot ring's watermark rounds to 0 and never trips.
func (r *Ring) AboveHigh() bool {
	high := 3 * len(r.entries) / 4
	return high > 0 && r.Len() >= high
}

// Alloc is a bump allocator for simulated physical addresses. It hands out
// aligned, non-overlapping regions so cache-set conflicts between rings are
// realistic rather than accidental aliasing.
type Alloc struct {
	next uint64
}

// NewAlloc returns an allocator starting at a non-zero base.
func NewAlloc() *Alloc { return &Alloc{next: 1 << 20} }

// Take reserves n bytes aligned to align (a power of two) and returns the
// base address.
func (a *Alloc) Take(n int, align int) uint64 {
	if align <= 0 {
		align = 64
	}
	mask := uint64(align - 1)
	a.next = (a.next + mask) &^ mask
	addr := a.next
	a.next += uint64(n)
	return addr
}

// Used returns the total bytes reserved so far.
func (a *Alloc) Used() uint64 { return a.next }
