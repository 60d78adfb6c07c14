package nic

import (
	"fmt"
	"sort"

	"norman/internal/overlay"
	"norman/internal/packet"
)

// This file is the NIC's exact-match flow cache — the hardware fast path in
// front of the ingress overlay pipeline (DESIGN.md §10; Deri et al.'s
// programmable flow offload). The first packet of a flow runs the full
// overlay chain (the kernel slow path, in the paper's terms: interpretation
// is where interposition semantics live) and installs an entry keyed by the
// 5-tuple; every later packet of the flow hits the cache and applies the
// memoized verdict and mark/class rewrite at single-lookup cost, skipping
// interpretation entirely. The cache is a bounded, set-associative SRAM
// structure charged against the same on-NIC budget as connections and
// steering entries, with clock (second-chance) eviction per bucket and
// optional per-tenant partitions whose evictions never cross tenants.
//
// Correctness rules (DESIGN.md §10):
//
//   - Only flow-invariant programs are cacheable: a program containing
//     meter, update, mirror or notify instructions has per-packet side
//     effects or rate-dependent state, and one that loads len, tcp_flags,
//     tos or time_ns decides on something that varies inside one 5-tuple,
//     so the NIC refuses to memoize it and every packet takes the slow
//     path (overlay.Machine.Cacheable).
//   - Per-rule hit counters (count) freeze for cached packets — exactly the
//     deviation real flow offload exhibits ("iptables -L -v" undercounts
//     offloaded flows); the per-entry hit counters preserve the total.
//   - Any event that can change a cached decision flushes or invalidates:
//     program load/unload/trap-fallback and bitstream reload flush the
//     whole cache; steering changes and connection close invalidate the
//     affected keys (both directions).

// flowEntrySRAM is the on-NIC footprint of one cache entry: 13 bytes of key,
// verdict/rewrite results, hit counter and tag bits, padded to the 32-byte
// SRAM row the lookup engine reads in one cycle.
const flowEntrySRAM = 32

// flowCacheWays is the set associativity: a lookup reads one bucket row of
// four entries in parallel, as exact-match hardware tables do.
const flowCacheWays = 4

// flowEntry is one cached flow decision. Entries are flat values in one
// backing array so the steady-state hot path allocates nothing.
type flowEntry struct {
	key     packet.FlowKey
	connID  uint64
	tenant  uint32
	mark    uint32
	class   uint32
	hits    uint64
	sum     uint32 // per-entry checksum over the decision fields (SRAM ECC stand-in)
	verdict overlay.Verdict
	ref     bool // clock second-chance bit
	valid   bool
	// tainted is the simulation's ground truth: an injected SRAM bit flip
	// landed here and the decision fields no longer match what the slow path
	// computed. The hardware cannot read this bit — it can only notice the
	// checksum mismatch, and only when verification is enabled.
	tainted bool
}

// FlowTenantStats is one tenant's slice of the flow-cache accounting:
// occupancy against its partition quota plus its hit/install/evict/deny
// counters. Quota is 0 when the cache is unpartitioned. The JSON form is what
// flowcache.status serves and nnetstat -flows decodes.
type FlowTenantStats struct {
	Tenant   uint32 `json:"tenant"`
	Used     int    `json:"used"`
	Quota    int    `json:"quota"`
	Hits     uint64 `json:"hits"`
	Installs uint64 `json:"installs"`
	Evicts   uint64 `json:"evictions"`
	Denied   uint64 `json:"denied"`
}

// FlowCache is the bounded exact-match flow table. It is not safe for
// concurrent use; like the rest of the NIC it lives on one engine's event
// loop.
type FlowCache struct {
	entries []flowEntry // buckets × flowCacheWays, flat
	hands   []uint8     // per-bucket clock hand
	buckets int         // power of two
	mask    uint32
	used    int

	// quotas, when non-nil, partitions capacity per tenant: installs beyond
	// a tenant's quota may only evict that tenant's own entries, and a full
	// bucket may only yield a same-tenant victim — eviction never crosses
	// into another tenant's partition.
	quotas map[uint32]int

	perTenant map[uint32]*FlowTenantStats
	order     []uint32 // sorted tenant ids for deterministic iteration

	// verify, when set, checks every hit's per-entry checksum before the
	// memoized decision is served: a mismatch (an SRAM bit flip landed in the
	// entry) is counted, the entry is dropped, and the packet takes the slow
	// path — the detection half of the health subsystem's failover story.
	// Off (the raw-bypass posture), a corrupted entry's verdict is served
	// as-is.
	verify bool

	// foreign is set by Install, the entry point for entries the datapath
	// did not memoize itself (the live upgrade's warm handover), and cleared
	// by Flush: while set, connection close scans the whole cache.
	foreign bool

	// Global counters (Hits + Misses covers every lookup; Installs −
	// Evictions − Invalidations == live entries, the conservation ledger
	// the property tests pin).
	Hits          uint64
	Misses        uint64
	Installs      uint64
	Evictions     uint64
	Invalidations uint64
	// Denied counts installs refused because the owning tenant's partition
	// was full and no same-tenant victim shared the bucket — the typed,
	// accounted form of cross-tenant cache pressure.
	Denied uint64
	// ChecksumFails counts hits refused because the entry's checksum no
	// longer matched its decision fields (detected SRAM corruption); each is
	// also an Invalidation, so the conservation ledger stays balanced.
	ChecksumFails uint64
	// CorruptServed counts lookups that applied a tainted entry's decision —
	// ground-truth accounting of silent verdict corruption, only ever
	// non-zero while verification is off.
	CorruptServed uint64
}

// newFlowCache builds a cache with at least `entries` slots, rounded up to a
// power-of-two bucket count at fixed associativity.
func newFlowCache(entries int) *FlowCache {
	if entries < flowCacheWays {
		entries = flowCacheWays
	}
	buckets := 1
	for buckets*flowCacheWays < entries {
		buckets <<= 1
	}
	return &FlowCache{
		entries:   make([]flowEntry, buckets*flowCacheWays),
		hands:     make([]uint8, buckets),
		buckets:   buckets,
		mask:      uint32(buckets - 1),
		perTenant: make(map[uint32]*FlowTenantStats),
	}
}

// Capacity returns the total entry slots.
func (f *FlowCache) Capacity() int { return f.buckets * flowCacheWays }

// Len returns the live entry count.
func (f *FlowCache) Len() int { return f.used }

// SetQuotas partitions the cache's capacity among tenants in proportion to
// their weights (SplitByWeight: at least one entry each). nil clears the
// partition. Existing entries are kept; quotas bind on the next install.
func (f *FlowCache) SetQuotas(weights map[uint32]int) error {
	if len(weights) == 0 {
		f.quotas = nil
		return nil
	}
	cap := f.Capacity()
	if len(weights) > cap {
		return fmt.Errorf("nic: %d tenants cannot partition a %d-entry flow cache", len(weights), cap)
	}
	f.quotas = SplitByWeight(weights, cap)
	for id, q := range f.quotas {
		f.tenantStats(id).Quota = q
	}
	return nil
}

// SplitByWeight divides slots among ids in proportion to their weights
// (a weight below 1 counts as 1): every id gets one slot, and the other
// slots − len(weights) go by largest remainder of extra×w/total, ties broken
// by ascending id so the split is deterministic. The caller guarantees
// len(weights) ≤ slots. It partitions the flow cache (SetQuotas) and the
// LLC's DDIO ways.
func SplitByWeight(weights map[uint32]int, slots int) map[uint32]int {
	ids := make([]uint32, 0, len(weights))
	total := 0
	for id, w := range weights {
		ids = append(ids, id)
		total += max(w, 1)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	extra := slots - len(weights)
	type frac struct {
		id  uint32
		rem int
	}
	fr := make([]frac, 0, len(ids))
	shares := make(map[uint32]int, len(ids))
	used := 0
	for _, id := range ids {
		w := max(weights[id], 1)
		e := extra * w / total
		shares[id] = 1 + e
		used += 1 + e
		fr = append(fr, frac{id: id, rem: extra * w % total})
	}
	sort.SliceStable(fr, func(i, j int) bool {
		if fr[i].rem != fr[j].rem {
			return fr[i].rem > fr[j].rem
		}
		return fr[i].id < fr[j].id
	})
	for i := 0; used < slots && i < len(fr); i++ {
		shares[fr[i].id]++
		used++
	}
	return shares
}

// Quotas returns the per-tenant partition, nil when unpartitioned.
func (f *FlowCache) Quotas() map[uint32]int { return f.quotas }

func (f *FlowCache) tenantStats(id uint32) *FlowTenantStats {
	if st, ok := f.perTenant[id]; ok {
		return st
	}
	st := &FlowTenantStats{Tenant: id}
	if f.quotas != nil {
		st.Quota = f.quotas[id]
	}
	f.perTenant[id] = st
	i := sort.Search(len(f.order), func(i int) bool { return f.order[i] >= id })
	f.order = append(f.order, 0)
	copy(f.order[i+1:], f.order[i:])
	f.order[i] = id
	return st
}

// TenantStats returns per-tenant accounting in ascending tenant order.
func (f *FlowCache) TenantStats() []FlowTenantStats {
	out := make([]FlowTenantStats, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, *f.perTenant[id])
	}
	return out
}

// flowHash is an inline FNV-1a over the 5-tuple — no allocation, no
// interface values, matching the hot path's zero-alloc pin.
func flowHash(k packet.FlowKey) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime
	}
	mix(byte(k.Src >> 24))
	mix(byte(k.Src >> 16))
	mix(byte(k.Src >> 8))
	mix(byte(k.Src))
	mix(byte(k.Dst >> 24))
	mix(byte(k.Dst >> 16))
	mix(byte(k.Dst >> 8))
	mix(byte(k.Dst))
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	return h
}

// entrySum is the per-entry checksum the lookup engine can verify in the
// same SRAM row read as the entry itself: an FNV-style mix of every field
// whose corruption would change the cached decision. A bit flip in the
// verdict, rewrite or steering fields breaks the sum; recomputing on every
// install keeps it current.
func entrySum(e *flowEntry) uint32 {
	h := flowHash(e.key)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
	}
	mix(uint32(e.connID))
	mix(uint32(e.connID >> 32))
	mix(e.tenant)
	mix(e.mark)
	mix(e.class)
	mix(uint32(e.verdict))
	return h
}

// SetVerify enables (or disables) per-entry checksum verification on lookup.
// The health monitor turns it on; a raw-bypass world leaves it off and serves
// whatever the SRAM holds.
func (f *FlowCache) SetVerify(on bool) { f.verify = on }

// Verify reports whether checksum verification is enabled.
func (f *FlowCache) Verify() bool { return f.verify }

// Corrupt models one SRAM bit flip landing in the entry at the given flat
// slot index: the verdict bit and a mark bit are inverted without updating
// the checksum, and the entry is marked tainted (the simulation's ground
// truth). Returns false when the slot holds no live entry — flips in empty
// rows are harmless, exactly as on real hardware.
func (f *FlowCache) Corrupt(slot int) bool {
	if len(f.entries) == 0 {
		return false
	}
	e := &f.entries[slot%len(f.entries)]
	if !e.valid {
		return false
	}
	e.verdict ^= 1 // pass <-> drop
	e.mark ^= 0x10
	e.tainted = true
	return true
}

// bucket returns the slice of ways for the bucket a key's flowHash selects,
// plus the bucket index.
func (f *FlowCache) bucket(hash uint32) (int, []flowEntry) {
	b := int(hash & f.mask)
	return b, f.entries[b*flowCacheWays : (b+1)*flowCacheWays : (b+1)*flowCacheWays]
}

// Lookup probes the cache. On a hit the entry's clock bit and hit counters
// advance and the entry is returned; the caller applies the memoized verdict
// and rewrite. Zero allocations in either outcome.
func (f *FlowCache) Lookup(k packet.FlowKey) (*flowEntry, bool) {
	return f.lookup(flowHash(k), k)
}

// lookup is Lookup for a caller that already holds hash = flowHash(k): the
// datapath hashes a frame's key once for its probe and its install.
func (f *FlowCache) lookup(hash uint32, k packet.FlowKey) (*flowEntry, bool) {
	_, row := f.bucket(hash)
	for i := range row {
		e := &row[i]
		if e.valid && e.key == k {
			if f.verify && entrySum(e) != e.sum {
				// Detected SRAM corruption: refuse the memoized decision,
				// drop the entry, and miss — the packet takes the slow path
				// and the health monitor sees the failure count move.
				f.ChecksumFails++
				f.drop(e)
				f.Misses++
				return nil, false
			}
			if e.tainted {
				f.CorruptServed++
			}
			e.ref = true
			e.hits++
			f.Hits++
			if st, ok := f.perTenant[e.tenant]; ok {
				st.Hits++
			}
			return e, true
		}
	}
	f.Misses++
	return nil, false
}

// Install memoizes one slow-path result. The entry is charged to the owning
// tenant; when the cache is partitioned, a tenant at quota (or facing a full
// bucket) may only evict its own entries — if none share the bucket the
// install is denied and counted, never satisfied at a neighbor's expense.
//
// An entry installed here, not by the datapath, need not be keyed by its
// connection's steering keys, so until the next Flush every connection close
// scans the whole cache (NIC.CloseConn).
func (f *FlowCache) Install(k packet.FlowKey, connID uint64, tenant uint32, verdict overlay.Verdict, mark, class uint32) bool {
	f.foreign = true
	return f.install(flowHash(k), k, connID, tenant, verdict, mark, class)
}

// install is Install for a caller that already holds hash = flowHash(k).
func (f *FlowCache) install(hash uint32, k packet.FlowKey, connID uint64, tenant uint32, verdict overlay.Verdict, mark, class uint32) bool {
	b, row := f.bucket(hash)
	st := f.tenantStats(tenant)
	var free *flowEntry
	for i := range row {
		e := &row[i]
		if e.valid && e.key == k {
			if e.tenant != tenant {
				// The key changed hands (steering rewired the flow to another
				// tenant's connection): refreshing in place would leave the old
				// owner's partition accounting inflated forever. Drop the stale
				// entry and take the normal install path so the new owner's
				// quota binds.
				f.drop(e)
				if free == nil {
					free = e
				}
				break
			}
			// Re-install over the existing entry (a slow-path rerun after a
			// racing invalidation): refresh the decision in place.
			e.connID = connID
			e.verdict, e.mark, e.class = verdict, mark, class
			e.sum = entrySum(e)
			e.tainted = false
			e.ref = true
			return true
		}
		if !e.valid && free == nil {
			free = e
		}
	}
	overQuota := f.quotas != nil && st.Quota > 0 && st.Used >= st.Quota
	if f.quotas != nil && st.Quota == 0 {
		// A tenant outside the partition map owns no slice of the cache.
		f.Denied++
		st.Denied++
		return false
	}
	if free != nil && !overQuota {
		f.fill(free, k, connID, tenant, verdict, mark, class)
		return true
	}
	// Evict: clock scan over the bucket, restricted to the installing
	// tenant's own entries when partitioned (or when it is over quota).
	sameTenantOnly := f.quotas != nil
	victim := f.clockVictim(b, row, tenant, sameTenantOnly)
	if victim == nil {
		f.Denied++
		st.Denied++
		return false
	}
	f.evict(victim)
	f.fill(victim, k, connID, tenant, verdict, mark, class)
	return true
}

func (f *FlowCache) fill(e *flowEntry, k packet.FlowKey, connID uint64, tenant uint32, verdict overlay.Verdict, mark, class uint32) {
	*e = flowEntry{key: k, connID: connID, tenant: tenant, verdict: verdict,
		mark: mark, class: class, ref: true, valid: true}
	e.sum = entrySum(e)
	f.used++
	f.Installs++
	f.tenantStats(tenant).Installs++
	f.tenantStats(tenant).Used++
}

func (f *FlowCache) evict(e *flowEntry) {
	f.Evictions++
	if st, ok := f.perTenant[e.tenant]; ok {
		st.Evicts++
		st.Used--
	}
	f.used--
	e.valid = false
}

// clockVictim runs a bounded second-chance scan over one bucket: referenced
// entries get their bit cleared and are passed over; the first unreferenced
// (eligible) entry is the victim. After two sweeps every eligible entry has
// lost its bit, so the scan always terminates with the hand's entry.
func (f *FlowCache) clockVictim(b int, row []flowEntry, tenant uint32, sameTenantOnly bool) *flowEntry {
	eligible := func(e *flowEntry) bool {
		return e.valid && (!sameTenantOnly || e.tenant == tenant)
	}
	any := false
	for i := range row {
		if eligible(&row[i]) {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	hand := int(f.hands[b])
	for scanned := 0; scanned < 2*flowCacheWays; scanned++ {
		e := &row[hand%flowCacheWays]
		hand++
		if !eligible(e) {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		f.hands[b] = uint8(hand % flowCacheWays)
		return e
	}
	// All eligible entries were re-referenced during the sweep; take the
	// one under the hand.
	for scanned := 0; scanned < flowCacheWays; scanned++ {
		e := &row[hand%flowCacheWays]
		hand++
		if eligible(e) {
			f.hands[b] = uint8(hand % flowCacheWays)
			return e
		}
	}
	return nil
}

// InvalidateKey removes the entry for one key (exact direction only; callers
// invalidate the reverse key separately when steering covers both).
func (f *FlowCache) InvalidateKey(k packet.FlowKey) bool {
	_, row := f.bucket(flowHash(k))
	for i := range row {
		e := &row[i]
		if e.valid && e.key == k {
			f.drop(e)
			return true
		}
	}
	return false
}

// invalidateKeyConn removes the entry for k if it points at connID.
func (f *FlowCache) invalidateKeyConn(k packet.FlowKey, connID uint64) {
	_, row := f.bucket(flowHash(k))
	for i := range row {
		e := &row[i]
		if e.valid && e.key == k {
			if e.connID == connID {
				f.drop(e)
			}
			return
		}
	}
}

// InvalidateConn removes every entry pointing at one connection (connection
// close, ring teardown).
func (f *FlowCache) InvalidateConn(connID uint64) int {
	dropped := 0
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid && e.connID == connID {
			f.drop(e)
			dropped++
		}
	}
	return dropped
}

// Flush removes every entry — the program-reload/recovery invalidation path:
// a new overlay chain may decide any flow differently, so nothing memoized
// under the old chain survives it.
func (f *FlowCache) Flush() int {
	f.foreign = false
	dropped := 0
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid {
			f.drop(e)
			dropped++
		}
	}
	return dropped
}

func (f *FlowCache) drop(e *flowEntry) {
	f.Invalidations++
	if st, ok := f.perTenant[e.tenant]; ok {
		st.Used--
	}
	f.used--
	e.valid = false
}

// FlowEntryExport is one live flow-cache decision in portable form — the
// warm-handover unit of the live-upgrade snapshot. Only the decision fields
// travel; hit counters and clock bits are runtime state that does not survive
// a generation flip.
type FlowEntryExport struct {
	Key     packet.FlowKey  `json:"key"`
	ConnID  uint64          `json:"conn_id"`
	Tenant  uint32          `json:"tenant"`
	Mark    uint32          `json:"mark,omitempty"`
	Class   uint32          `json:"class,omitempty"`
	Verdict overlay.Verdict `json:"verdict"`
}

// Export snapshots the live entries in deterministic (flowLess) key order.
// Tainted entries and entries whose checksum no longer matches their decision
// fields are skipped — corrupted state must never be warm-transferred into a
// new generation's cache.
func (f *FlowCache) Export() []FlowEntryExport {
	out := make([]FlowEntryExport, 0, f.used)
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid || e.tainted || entrySum(e) != e.sum {
			continue
		}
		out = append(out, FlowEntryExport{
			Key: e.key, ConnID: e.connID, Tenant: e.tenant,
			Mark: e.mark, Class: e.class, Verdict: e.verdict,
		})
	}
	sort.Slice(out, func(i, j int) bool { return flowLess(out[i].Key, out[j].Key) })
	return out
}

// flowLess orders flow keys lexicographically: the one order every
// deterministic walk of a flow-keyed map uses.
func flowLess(a, b packet.FlowKey) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// EnableFlowCache installs a flow cache with at least `entries` slots
// (rounded up to a power-of-two bucket count at 4-way associativity),
// charging 32 bytes per slot against the on-NIC SRAM budget. Returns
// ErrSRAMExhausted when the budget cannot hold it. Calling again replaces
// the cache (releasing the old charge).
func (n *NIC) EnableFlowCache(entries int) error {
	fc := newFlowCache(entries)
	need := fc.Capacity() * flowEntrySRAM
	old := 0
	if n.fc != nil {
		old = n.fc.Capacity() * flowEntrySRAM
	}
	if n.sramUsed-old+need > n.sramBudget {
		return fmt.Errorf("%w: flow cache needs %d bytes, %d free",
			ErrSRAMExhausted, need, n.sramBudget-(n.sramUsed-old))
	}
	n.sramUsed += need - old
	n.fc = fc
	return nil
}

// DisableFlowCache removes the flow cache and releases its SRAM charge.
func (n *NIC) DisableFlowCache() {
	if n.fc == nil {
		return
	}
	n.sramUsed -= n.fc.Capacity() * flowEntrySRAM
	n.fc = nil
}

// FlowCache returns the installed cache, nil when disabled.
func (n *NIC) FlowCache() *FlowCache { return n.fc }

// fcUsable says whether j's frame may touch the flow cache: enabled cache,
// cacheable ingress program, steered connection and a parseable 5-tuple are
// all required — anything else is a slow-path packet by construction.
func (n *NIC) fcUsable(j *job) bool {
	return n.fc != nil && !n.fcBypass && n.ingressCacheable && j.c != nil && j.flow
}

// flowHash returns flowHash(j.key), computed by the first caller.
func (j *job) flowHash() uint32 {
	if !j.hashed {
		j.hash, j.hashed = flowHash(j.key), true
	}
	return j.hash
}

// fcLookup is the datapath's hit probe.
func (n *NIC) fcLookup(j *job) (*flowEntry, bool) {
	if !n.fcUsable(j) {
		return nil, false
	}
	return n.fc.lookup(j.flowHash(), j.key)
}

// fcInstall memoizes a completed slow-path run. trapped runs never install:
// the fallback swap already flushed the cache and the verdict came from a
// different chain than the one now loaded.
func (n *NIC) fcInstall(j *job, verdict overlay.Verdict, trapped bool) {
	if !n.fcUsable(j) || trapped {
		return
	}
	m := &j.p.Meta
	n.fc.install(j.flowHash(), j.key, j.c.ID, m.Tenant, verdict, m.Mark, m.Class)
}

// fcInvalidateKey drops both directions of a steering key from the cache.
func (n *NIC) fcInvalidateKey(k packet.FlowKey) {
	if n.fc == nil {
		return
	}
	n.fc.InvalidateKey(k)
	n.fc.InvalidateKey(k.Reverse())
}

// fcFlush empties the cache when the ingress decision procedure changes
// (program load/unload, trap fallback, bitstream reload, recovery restore).
func (n *NIC) fcFlush() {
	if n.fc != nil {
		n.fc.Flush()
	}
}
