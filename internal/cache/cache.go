// Package cache models a set-associative last-level cache with an Intel
// DDIO-style way partition.
//
// The paper's §5 anecdote — Norman fails to sustain 100 Gbps past 1024
// concurrent connections — is attributed to DDIO: inbound DMA may allocate
// into only a fixed fraction of LLC ways, so once the active per-connection
// ring working set outgrows that fraction, device accesses spill to DRAM.
//
// The model's partition semantics: DMA accesses look up and allocate only in
// the first DDIOWays ways of each set (the I/O partition). CPU accesses look
// up all ways — a hit on a line resident in a DDIO way refreshes it in place
// (no migration), so descriptor lines kept hot by both the device and the
// consuming core stay in the I/O partition and their survival is governed by
// the partition's capacity, which is the effect the paper hypothesizes.
// Payload data is handled by the NIC with non-allocating (streaming) writes
// and never enters this model; see nic.dmaCost.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// wayRange is one tenant's slice of the DDIO partition: ways [lo, lo+n).
type wayRange struct {
	lo, n int
}

// TenantDMAStats is one tenant's device-access counters under the DDIO
// partition.
type TenantDMAStats struct {
	Tenant uint32
	Ways   int
	Hits   uint64
	Misses uint64
}

// LLC is a set-associative last-level cache. The zero value is unusable;
// construct with New.
type LLC struct {
	sets     int
	ways     int
	ddioWays int
	lineSz   int

	lineShift int    // log2(lineSz), or -1 when lineSz is not a power of two
	setMask   uint64 // sets-1 when sets is a power of two, else 0

	// data holds one record per set, stride words apart: the ways' line tags
	// (line number + 1; 0 = invalid), then one recency-rank byte per way,
	// packed four to a word. Ranks order the ways exactly as a global access
	// stamp per way would (DESIGN.md §5 "LLC set record"). A never-touched way
	// has rank 0, as in a zeroed record; touch lifts the way it touches to
	// ways-1 and moves down only the ways ranked above it, so the touched
	// ways hold the top ranks in recency order, and once every way is touched
	// the ranks are a permutation of 0..ways-1, 0 the least recently used.
	// The victim search breaks ties by the lowest way index, so never-touched
	// ways, whose stamps would tie, are replaced first, lowest index first.
	// Zeroed memory is thus an empty cache: New and Reset write no record.
	// The stride is a whole number of 64-byte host lines; the default 11-way
	// set (44 tag bytes + 11 rank bytes) is exactly one.
	data      []uint32
	rankWords int
	stride    int

	hits      uint64
	misses    uint64
	dmaHits   uint64
	dmaMisses uint64

	// Per-tenant DDIO way partition (PartitionDDIO): each listed tenant's
	// device accesses look up and allocate only inside its own way range, so
	// one tenant's descriptor footprint cannot evict another's. Tenants
	// outside the partition fall back to the whole DDIO region.
	parts      map[uint32]wayRange
	partOrder  []uint32 // sorted tenant ids, for deterministic accessors
	tenantHit  map[uint32]uint64
	tenantMiss map[uint32]uint64
}

// Config describes an LLC geometry.
type Config struct {
	TotalBytes int // cache capacity
	Ways       int // associativity
	DDIOWays   int // ways available to DMA allocation (0 disables DDIO: DMA bypasses cache)
	LineBytes  int // cache line size (typically 64)
}

// New constructs an LLC. Panics on non-positive geometry, because a broken
// cache geometry silently corrupts every downstream experiment.
func New(cfg Config) *LLC {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.TotalBytes <= 0 || cfg.Ways <= 0 {
		panic("cache: non-positive geometry")
	}
	if cfg.DDIOWays > cfg.Ways {
		cfg.DDIOWays = cfg.Ways
	}
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways, the set record ranks at most %d", cfg.Ways, maxWays))
	}
	sets := cfg.TotalBytes / (cfg.LineBytes * cfg.Ways)
	if sets <= 0 {
		sets = 1
	}
	c := &LLC{
		sets:      sets,
		ways:      cfg.Ways,
		ddioWays:  cfg.DDIOWays,
		lineSz:    cfg.LineBytes,
		lineShift: -1,
		rankWords: (cfg.Ways + 3) / 4,
	}
	if cfg.LineBytes&(cfg.LineBytes-1) == 0 {
		c.lineShift = bits.TrailingZeros(uint(cfg.LineBytes))
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	const hostLine = 64 / 4 // words
	c.stride = (c.ways + c.rankWords + hostLine - 1) / hostLine * hostLine
	c.data = make([]uint32, sets*c.stride)
	return c
}

// maxWays bounds the associativity: touch compares four rank bytes at a time
// and needs their top bit free.
const maxWays = 128

// lineOf maps an address to its (set, tag) pair. Tag 0 is reserved for
// invalid entries, so line numbers are offset by 1; an address whose line
// number does not fit the 32-bit tag panics rather than alias a lower one.
// The set index mixes the line number through a multiplicative hash:
// simulated allocations are perfectly page-aligned and regularly strided,
// which without hashing produces pathological set conflicts that
// physical-page scattering (and Intel's complex LLC index hash) prevent on
// real machines. Power-of-two geometries shift and mask where the general
// case divides.
func (c *LLC) lineOf(addr uint64) (set int, tag uint32) {
	var line uint64
	if c.lineShift >= 0 {
		line = addr>>c.lineShift + 1
	} else {
		line = addr/uint64(c.lineSz) + 1
	}
	if line > math.MaxUint32 {
		panic(fmt.Sprintf("cache: address %#x is line %d, beyond the 32-bit tag", addr, line-1))
	}
	mixed := (line * 0x9E3779B97F4A7C15) >> 17 // Fibonacci hashing constant
	if c.setMask != 0 {
		return int(mixed & c.setMask), uint32(line)
	}
	return int(mixed % uint64(c.sets)), uint32(line)
}

// access performs a lookup over lookupWays ways and, on miss, allocates the
// LRU entry among allocWays ways. allocWays == 0 means no allocation.
func (c *LLC) access(addr uint64, lookupWays, allocWays int) (hit bool) {
	return c.accessWays(addr, 0, lookupWays, 0, allocWays)
}

// accessWays generalizes access to arbitrary way windows: lookup scans ways
// [lookupLo, lookupHi); on miss the LRU entry in [allocLo, allocHi) is
// replaced (an empty alloc window means no allocation). This is the primitive
// the per-tenant DDIO partition is built on.
func (c *LLC) accessWays(addr uint64, lookupLo, lookupHi, allocLo, allocHi int) (hit bool) {
	set, tag := c.lineOf(addr)
	rec := c.data[set*c.stride:]
	tags, ranks := rec[:c.ways], rec[c.ways:c.ways+c.rankWords]
	for w := lookupLo; w < lookupHi; w++ {
		if tags[w] == tag {
			touch(ranks, w, c.ways)
			return true
		}
	}
	if allocHi <= allocLo {
		return false
	}
	// Lowest rank in the window, carried with its way in the low byte: a tie
	// goes to the lowest way.
	oldest := rankOf(ranks, allocLo)<<8 | uint32(allocLo)
	for w := allocLo + 1; w < allocHi; w++ {
		oldest = min(oldest, rankOf(ranks, w)<<8|uint32(w))
	}
	victim := int(oldest & 0xff)
	tags[victim] = tag
	touch(ranks, victim, c.ways)
	return false
}

// rankOf reads way w's recency rank.
func rankOf(ranks []uint32, w int) uint32 {
	return ranks[w>>2] >> (uint(w&3) * 8) & 0xff
}

// touch makes way w the most recently used of its set: every way ranked
// above it moves down one and w takes the top rank, ways-1. A word of four
// ranks moves at once: a rank byte x ≤ 127 exceeds r exactly when x + (127 − r)
// carries into its top bit, and no such sum reaches the neighbouring byte.
// Padding bytes past the last way stay 0.
func touch(ranks []uint32, w, ways int) {
	r := rankOf(ranks, w)
	above := (0x7f - r) * 0x01010101
	for i, x := range ranks {
		ranks[i] = x - (x+above)&0x80808080>>7
	}
	ranks[w>>2] += (uint32(ways-1) - r) << (uint(w&3) * 8)
}

// CPUAccess simulates a CPU load/store of one line; reports whether it hit.
// Lookup spans all ways (a hit in a DDIO way refreshes in place); allocation
// on miss may use any way.
func (c *LLC) CPUAccess(addr uint64) bool {
	hit := c.access(addr, c.ways, c.ways)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return hit
}

// DMAAccess simulates a device access of one line under the DDIO partition:
// lookup and allocation both confined to the DDIO ways. With DDIOWays == 0,
// DMA bypasses the cache entirely (always a miss, no allocation) — DDIO
// disabled.
func (c *LLC) DMAAccess(addr uint64) bool {
	hit := c.access(addr, c.ddioWays, c.ddioWays)
	if hit {
		c.dmaHits++
	} else {
		c.dmaMisses++
	}
	return hit
}

// PartitionDDIO splits the DDIO ways among tenants: each listed tenant gets a
// contiguous, exclusive way range sized by its entry, assigned in ascending
// tenant order. The requested ways must fit the DDIO region (and every share
// must be positive) or the partition is rejected. Installing a partition
// replaces any previous one and resets per-tenant counters; cached lines are
// left in place — a line now outside its owner's range simply ages out.
func (c *LLC) PartitionDDIO(ways map[uint32]int) error {
	if len(ways) == 0 {
		c.ClearPartition()
		return nil
	}
	ids := make([]uint32, 0, len(ways))
	total := 0
	for id, w := range ways {
		if w <= 0 {
			return fmt.Errorf("cache: tenant %d partition share %d ways (must be positive)", id, w)
		}
		total += w
		ids = append(ids, id)
	}
	if total > c.ddioWays {
		return fmt.Errorf("cache: partition wants %d ways, DDIO region has %d", total, c.ddioWays)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make(map[uint32]wayRange, len(ids))
	lo := 0
	for _, id := range ids {
		parts[id] = wayRange{lo: lo, n: ways[id]}
		lo += ways[id]
	}
	c.parts = parts
	c.partOrder = ids
	c.tenantHit = make(map[uint32]uint64, len(ids))
	c.tenantMiss = make(map[uint32]uint64, len(ids))
	return nil
}

// ClearPartition removes the per-tenant DDIO partition: device accesses share
// the whole DDIO region again.
func (c *LLC) ClearPartition() {
	c.parts, c.partOrder, c.tenantHit, c.tenantMiss = nil, nil, nil, nil
}

// Partitioned reports whether a per-tenant DDIO partition is installed.
func (c *LLC) Partitioned() bool { return len(c.parts) > 0 }

// DMAAccessTenant is DMAAccess under the partition: the tenant's lookup and
// allocation are confined to its own way range. Tenants without a range (the
// unattributed tenant 0, or anyone the partition omits) use the whole DDIO
// region — they can be evicted by everyone but evict only within the shared
// window. Counters accrue both globally and per tenant.
func (c *LLC) DMAAccessTenant(addr uint64, tenant uint32) bool {
	r, ok := c.parts[tenant]
	if !ok {
		r = wayRange{lo: 0, n: c.ddioWays}
	}
	hit := c.accessWays(addr, r.lo, r.lo+r.n, r.lo, r.lo+r.n)
	if hit {
		c.dmaHits++
		if c.tenantHit != nil {
			c.tenantHit[tenant]++
		}
	} else {
		c.dmaMisses++
		if c.tenantMiss != nil {
			c.tenantMiss[tenant]++
		}
	}
	return hit
}

// TenantDMAStats returns per-tenant device hit/miss counters in ascending
// tenant order: the partitioned tenants first (even when idle), then any
// unpartitioned tenants that produced traffic. Sorted iteration keeps
// metrics and ctl output deterministic.
func (c *LLC) TenantDMAStats() []TenantDMAStats {
	if c.tenantHit == nil {
		return nil
	}
	seen := make(map[uint32]bool, len(c.partOrder))
	ids := make([]uint32, 0, len(c.partOrder))
	for _, id := range c.partOrder {
		seen[id] = true
		ids = append(ids, id)
	}
	for id := range c.tenantHit {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for id := range c.tenantMiss {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]TenantDMAStats, 0, len(ids))
	for _, id := range ids {
		st := TenantDMAStats{Tenant: id, Hits: c.tenantHit[id], Misses: c.tenantMiss[id]}
		if r, ok := c.parts[id]; ok {
			st.Ways = r.n
		}
		out = append(out, st)
	}
	return out
}

// Touch performs sequential accesses covering n bytes starting at addr,
// returning how many of the covered lines hit. dma selects the DMA path. It
// walks the covered lines by their first byte; a power-of-two line size
// finds that byte with a mask where the general case divides.
func (c *LLC) Touch(addr uint64, n int, dma bool) (hits, lines int) {
	if n <= 0 {
		return 0, 0
	}
	sz, end := uint64(c.lineSz), addr+uint64(n)-1
	if c.lineShift >= 0 {
		addr, end = addr&^(sz-1), end&^(sz-1)
	} else {
		addr, end = addr/sz*sz, end/sz*sz
	}
	for a := addr; a <= end; a += sz {
		var h bool
		if dma {
			h = c.DMAAccess(a)
		} else {
			h = c.CPUAccess(a)
		}
		if h {
			hits++
		}
		lines++
	}
	return hits, lines
}

// Stats returns cumulative hit/miss counts for CPU and DMA accesses.
func (c *LLC) Stats() (cpuHits, cpuMisses, dmaHits, dmaMisses uint64) {
	return c.hits, c.misses, c.dmaHits, c.dmaMisses
}

// DDIOBytes returns the capacity DMA traffic can occupy.
func (c *LLC) DDIOBytes() int { return c.sets * c.ddioWays * c.lineSz }

// DDIOWays returns the number of ways in the DDIO region.
func (c *LLC) DDIOWays() int { return c.ddioWays }

// Reset invalidates the cache and zeroes statistics.
func (c *LLC) Reset() {
	clear(c.data)
	c.hits, c.misses, c.dmaHits, c.dmaMisses = 0, 0, 0, 0
	if c.tenantHit != nil {
		c.tenantHit = make(map[uint32]uint64, len(c.parts))
		c.tenantMiss = make(map[uint32]uint64, len(c.parts))
	}
}
