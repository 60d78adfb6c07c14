package norman

import (
	"fmt"
	"maps"
	"sort"

	"norman/internal/nic"
	"norman/internal/recovery"
)

// TenantStatus is one tenant's combined isolation state: scheduler grants,
// DDIO partition counters, and governor accounting, merged for ctl and
// nnetstat. Fields that a disabled layer cannot fill stay zero.
type TenantStatus struct {
	Tenant     uint32 `json:"tenant"`
	Weight     int    `json:"weight"`
	PipeGrants uint64 `json:"pipe_grants"`
	DMAGrants  uint64 `json:"dma_grants"`
	// PipeWaitNs/DMAWaitNs surface the scheduler's queue-wait accounting —
	// computed since PR 7 but previously dropped on the way to ctl/nnetstat.
	PipeWaitNs  uint64 `json:"pipe_wait_ns"`
	DMAWaitNs   uint64 `json:"dma_wait_ns"`
	FifoDrops   uint64 `json:"fifo_drops"`
	DDIOWays    int    `json:"ddio_ways"`
	DDIOHits    uint64 `json:"ddio_hits"`
	DDIOMisses  uint64 `json:"ddio_misses"`
	Conns       int    `json:"conns"`
	RingBytes   int    `json:"ring_bytes"`
	RingBudget  int    `json:"ring_budget_bytes"`
	State       string `json:"state"`
	Transitions uint64 `json:"transitions"`
}

// EnableTenantIsolation turns on multi-tenant performance isolation across
// the whole dataplane: the NIC's pipeline and DMA engine are scheduled by
// weighted deficit round-robin over the given tenants, the LLC's DDIO ways
// are partitioned among them in proportion to weight (largest remainder,
// at least one way each), and — when the overload governor or the flow cache
// is enabled, before or after this call — the governor's descriptor budget
// is split into per-tenant shares with private health machines and the
// cache's capacity is partitioned, by the same weights. Weights must be
// positive; calling again with different weights replaces the previous
// configuration, with the same weights it changes nothing. With recovery
// enabled the weights are journaled write-ahead like a TCSet, and a split
// the DDIO region cannot hold is compensated with an abort record. The
// mapping from users to tenants is set with AssignTenant; unassigned users
// are their own tenant (tenant id = uid).
func (s *System) EnableTenantIsolation(weights map[uint32]int) error {
	if err := s.gate(); err != nil {
		return err
	}
	if len(weights) == 0 {
		return fmt.Errorf("norman: tenant isolation needs at least one tenant weight")
	}
	for id, w := range weights {
		if w <= 0 {
			return fmt.Errorf("norman: tenant %d weight %d (must be positive)", id, w)
		}
	}
	if maps.Equal(weights, s.policy.Tenants) {
		return s.resolve() // the standing ask: nothing to journal
	}
	if err := s.commit(recovery.Entry{Op: recovery.OpTenantSet, Tenants: maps.Clone(weights)}, s.fitTenants); err != nil {
		return err
	}
	return s.resolve()
}

// fitTenants refuses a set entry whose split the DDIO region cannot hold: an
// ask resolve could never install would fail every later call too. resolve
// installs the rest.
func (s *System) fitTenants(e recovery.Entry) error {
	_, err := s.ddioShares(e.Tenants)
	return err
}

// ddioShares splits the LLC's DDIO ways among the tenants by weight; nil when
// the world models no cache (or no DDIO region) and there is nothing to split.
func (s *System) ddioShares(weights map[uint32]int) (map[uint32]int, error) {
	if s.w.LLC == nil || s.w.LLC.DDIOWays() == 0 {
		return nil, nil
	}
	return splitWays(weights, s.w.LLC.DDIOWays())
}

// AssignTenant maps a user to a tenant for isolation accounting. Every
// packet the kernel attributes to the user carries the tenant id through
// the dataplane. Tenant 0 clears the mapping (the user reverts to being
// its own tenant).
func (s *System) AssignTenant(u *User, tenant uint32) {
	s.w.Kern.AssignTenant(u.UID, tenant)
}

// TenantsStatus merges the scheduler, cache and governor views into one
// row per tenant, in ascending tenant order. Nil when isolation is off.
func (s *System) TenantsStatus() []TenantStatus {
	ts := s.w.NIC.TenantScheduler()
	if ts == nil {
		return nil
	}
	rows := make(map[uint32]*TenantStatus)
	order := []uint32{}
	row := func(id uint32) *TenantStatus {
		if r, ok := rows[id]; ok {
			return r
		}
		r := &TenantStatus{Tenant: id}
		rows[id] = r
		order = append(order, id)
		return r
	}
	for _, st := range ts.Stats() {
		r := row(st.Tenant)
		r.Weight = st.Weight
		r.PipeGrants = st.PipeGrants
		r.DMAGrants = st.DMAGrants
		r.PipeWaitNs = uint64(st.PipeWait / Nanosecond)
		r.DMAWaitNs = uint64(st.DMAWait / Nanosecond)
		r.FifoDrops = st.RxFifoDrops
	}
	if s.w.LLC != nil {
		for _, cs := range s.w.LLC.TenantDMAStats() {
			r := row(cs.Tenant)
			r.DDIOWays = cs.Ways
			r.DDIOHits = cs.Hits
			r.DDIOMisses = cs.Misses
		}
	}
	if s.gov != nil {
		for _, gs := range s.gov.TenantSnapshots() {
			r := row(gs.Tenant)
			r.Conns = gs.Conns
			r.RingBytes = gs.RingBytes
			r.RingBudget = gs.RingBudget
			r.State = gs.State
			r.Transitions = gs.Transitions
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]TenantStatus, 0, len(order))
	for _, id := range order {
		out = append(out, *rows[id])
	}
	return out
}

// splitWays divides `ways` cache ways among tenants in proportion to their
// weights (nic.SplitByWeight: at least one way each). Errors when there are
// more tenants than ways.
func splitWays(weights map[uint32]int, ways int) (map[uint32]int, error) {
	if n := len(weights); n > ways {
		return nil, fmt.Errorf("norman: %d tenants cannot each hold a way of a %d-way DDIO region", n, ways)
	}
	return nic.SplitByWeight(weights, ways), nil
}
