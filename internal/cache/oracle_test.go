package cache

import (
	"fmt"
	"sort"
)

// stampLLC is the LLC as it was before the set record: 64-bit tags and a
// global access stamp per way in two flat arrays, moved here verbatim (type
// and constructor renamed, unused accessors dropped) as the oracle
// FuzzLLCEquivalence holds the set-record implementation to.
type stampLLC struct {
	sets     int
	ways     int
	ddioWays int
	lineSz   int

	// tags[set*ways+way] holds the cached line address (addr >> lineShift),
	// or 0 for invalid. stamp provides LRU ordering.
	tags  []uint64
	stamp []uint64
	clock uint64

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

func newStampLLC(cfg Config) *stampLLC {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.TotalBytes <= 0 || cfg.Ways <= 0 {
		panic("cache: non-positive geometry")
	}
	if cfg.DDIOWays > cfg.Ways {
		cfg.DDIOWays = cfg.Ways
	}
	sets := cfg.TotalBytes / (cfg.LineBytes * cfg.Ways)
	if sets <= 0 {
		sets = 1
	}
	return &stampLLC{
		sets:     sets,
		ways:     cfg.Ways,
		ddioWays: cfg.DDIOWays,
		lineSz:   cfg.LineBytes,
		tags:     make([]uint64, sets*cfg.Ways),
		stamp:    make([]uint64, sets*cfg.Ways),
	}
}

// lineOf maps an address to its (set, tag) pair. Tag 0 is reserved for
// invalid entries, so line numbers are offset by 1. The set index mixes the
// line number through a multiplicative hash: simulated allocations are
// perfectly page-aligned and regularly strided, which without hashing
// produces pathological set conflicts that physical-page scattering (and
// Intel's complex LLC index hash) prevent on real machines.
func (c *stampLLC) lineOf(addr uint64) (set int, tag uint64) {
	line := addr/uint64(c.lineSz) + 1
	mixed := line * 0x9E3779B97F4A7C15 // Fibonacci hashing constant
	return int((mixed >> 17) % uint64(c.sets)), line
}

// access performs a lookup over lookupWays ways and, on miss, allocates the
// LRU entry among allocWays ways. allocWays == 0 means no allocation.
func (c *stampLLC) access(addr uint64, lookupWays, allocWays int) (hit bool) {
	return c.accessWays(addr, 0, lookupWays, 0, allocWays)
}

// accessWays generalizes access to arbitrary way windows: lookup scans ways
// [lookupLo, lookupHi); on miss the LRU entry in [allocLo, allocHi) is
// replaced (an empty alloc window means no allocation). This is the primitive
// the per-tenant DDIO partition is built on.
func (c *stampLLC) accessWays(addr uint64, lookupLo, lookupHi, allocLo, allocHi int) (hit bool) {
	set, tag := c.lineOf(addr)
	base := set * c.ways
	c.clock++
	for w := lookupLo; w < lookupHi; w++ {
		if c.tags[base+w] == tag {
			c.stamp[base+w] = c.clock
			return true
		}
	}
	if allocHi <= allocLo {
		return false
	}
	victim := base + allocLo
	for w := allocLo + 1; w < allocHi; w++ {
		if c.stamp[base+w] < c.stamp[victim] {
			victim = base + w
		}
	}
	c.tags[victim] = tag
	c.stamp[victim] = c.clock
	return false
}

// CPUAccess simulates a CPU load/store of one line; reports whether it hit.
// Lookup spans all ways (a hit in a DDIO way refreshes in place); allocation
// on miss may use any way.
func (c *stampLLC) CPUAccess(addr uint64) bool {
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
func (c *stampLLC) DMAAccess(addr uint64) bool {
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
func (c *stampLLC) PartitionDDIO(ways map[uint32]int) error {
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
func (c *stampLLC) ClearPartition() {
	c.parts, c.partOrder, c.tenantHit, c.tenantMiss = nil, nil, nil, nil
}

// DMAAccessTenant is DMAAccess under the partition: the tenant's lookup and
// allocation are confined to its own way range. Tenants without a range (the
// unattributed tenant 0, or anyone the partition omits) use the whole DDIO
// region — they can be evicted by everyone but evict only within the shared
// window. Counters accrue both globally and per tenant.
func (c *stampLLC) DMAAccessTenant(addr uint64, tenant uint32) bool {
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
func (c *stampLLC) TenantDMAStats() []TenantDMAStats {
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
// returning how many of the covered lines hit. dma selects the DMA path.
func (c *stampLLC) Touch(addr uint64, n int, dma bool) (hits, lines int) {
	if n <= 0 {
		return 0, 0
	}
	first := addr / uint64(c.lineSz)
	last := (addr + uint64(n) - 1) / uint64(c.lineSz)
	for l := first; l <= last; l++ {
		var h bool
		if dma {
			h = c.DMAAccess(l * uint64(c.lineSz))
		} else {
			h = c.CPUAccess(l * uint64(c.lineSz))
		}
		if h {
			hits++
		}
		lines++
	}
	return hits, lines
}

// Stats returns cumulative hit/miss counts for CPU and DMA accesses.
func (c *stampLLC) Stats() (cpuHits, cpuMisses, dmaHits, dmaMisses uint64) {
	return c.hits, c.misses, c.dmaHits, c.dmaMisses
}

// Reset invalidates the cache and zeroes statistics.
func (c *stampLLC) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.stamp[i] = 0
	}
	c.clock = 0
	c.hits, c.misses, c.dmaHits, c.dmaMisses = 0, 0, 0, 0
	if c.tenantHit != nil {
		c.tenantHit = make(map[uint32]uint64, len(c.parts))
		c.tenantMiss = make(map[uint32]uint64, len(c.parts))
	}
}
