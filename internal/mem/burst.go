package mem

import "norman/internal/sim"

// This file and slab.go are bench-only: bench/probe.go times a batched
// descriptor drain over them (probe.sim.sharded_ns_per_event,
// probe.transport.flyweight_rx_ns), and nothing else in the tree uses them.
// They stay, with that one caller, until the ROADMAP item "Unfreeze the
// benchmark" retires the probes.

// PktRef is a value-typed receive descriptor: connection, sequence, length
// and timestamp, so pushing and draining a burst allocates nothing and
// descriptors stay two to a cache line.
type PktRef struct {
	Conn uint32   // dense connID into a ConnSlab
	Seq  uint32   // transport sequence number
	Len  uint16   // payload bytes
	At   sim.Time // produced (arrival at the ring)
}

// BurstRing is an SPSC descriptor ring drained in bursts (one engine event
// consumes up to a burst of descriptors, not one packet each). Same
// head/tail discipline as Ring; capacity must be a power of two.
type BurstRing struct {
	entries []PktRef
	mask    uint64
	head    uint64
	tail    uint64
}

// NewBurstRing creates a burst ring with the given power-of-two capacity.
// baseAddr, the ring's simulated physical address, is not modelled.
func NewBurstRing(capacity int, baseAddr uint64) *BurstRing {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("mem: burst ring capacity must be a positive power of two")
	}
	return &BurstRing{entries: make([]PktRef, capacity), mask: uint64(capacity - 1)}
}

// free returns the number of unoccupied descriptors.
func (r *BurstRing) free() int { return len(r.entries) - int(r.head-r.tail) }

// Push enqueues one descriptor and reports whether it fit.
func (r *BurstRing) Push(d PktRef) bool {
	if r.free() == 0 {
		return false
	}
	r.entries[r.head&r.mask] = d
	r.head++
	return true
}

// PushBurst enqueues as many of src as fit and returns how many it took. The
// bulk mirror of PopBurst — one capacity check and at most two copies per
// burst.
func (r *BurstRing) PushBurst(src []PktRef) int {
	n := min(r.free(), len(src))
	at := int(r.head & r.mask)
	m := copy(r.entries[at:], src[:n])
	copy(r.entries, src[m:n])
	r.head += uint64(n)
	return n
}

// PopBurst dequeues up to len(dst) descriptors into dst and returns how
// many it moved — the batched drain primitive: one call, one burst, no
// allocation. Copies at most two contiguous segments.
func (r *BurstRing) PopBurst(dst []PktRef) int {
	n := min(int(r.head-r.tail), len(dst))
	at := int(r.tail & r.mask)
	m := copy(dst[:n], r.entries[at:])
	copy(dst[m:n], r.entries)
	r.tail += uint64(n)
	return n
}
