package norman

import "norman/internal/nic"

// FlowCacheStatus is the NIC flow cache's merged view for ctl and nnetstat:
// global lookup/install/evict accounting plus per-tenant partition rows when
// tenant isolation partitions the cache.
type FlowCacheStatus struct {
	Enabled       bool                  `json:"enabled"`
	Capacity      int                   `json:"capacity"`
	Entries       int                   `json:"entries"`
	Partitioned   bool                  `json:"partitioned"`
	Hits          uint64                `json:"hits"`
	Misses        uint64                `json:"misses"`
	Installs      uint64                `json:"installs"`
	Evictions     uint64                `json:"evictions"`
	Invalidations uint64                `json:"invalidations"`
	Denied        uint64                `json:"denied"`
	Tenants       []nic.FlowTenantStats `json:"tenants,omitempty"`
}

// EnableFlowCache installs the NIC's exact-match flow cache with at least
// `entries` slots (rounded up to a power-of-two bucket count), charged
// against the on-NIC SRAM budget. Established flows then skip overlay
// interpretation at single-lookup cost; the first packet of every flow still
// runs the full chain (the kernel slow path) and installs the entry. When
// tenant isolation is enabled — before or after this call — the cache's
// capacity is partitioned by the same tenant weights, and eviction never
// crosses a partition. Calling again replaces the cache with an empty one.
func (s *System) EnableFlowCache(entries int) error {
	if err := s.w.NIC.EnableFlowCache(entries); err != nil {
		return err
	}
	return s.resolve()
}

// FlowCacheStatus snapshots the flow cache. Enabled=false (all else zero)
// when no cache is installed.
func (s *System) FlowCacheStatus() FlowCacheStatus {
	fc := s.w.NIC.FlowCache()
	if fc == nil {
		return FlowCacheStatus{}
	}
	return FlowCacheStatus{
		Enabled:       true,
		Capacity:      fc.Capacity(),
		Entries:       fc.Len(),
		Partitioned:   fc.Quotas() != nil,
		Hits:          fc.Hits,
		Misses:        fc.Misses,
		Installs:      fc.Installs,
		Evictions:     fc.Evictions,
		Invalidations: fc.Invalidations,
		Denied:        fc.Denied,
		Tenants:       fc.TenantStats(),
	}
}
