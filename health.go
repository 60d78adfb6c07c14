package norman

import "norman/internal/health"

// EnableHealth attaches the NIC hardware-health monitor: per-component
// error/latency signals (trap-fallback rate, flow-cache checksum failures,
// DMA stall time, link state) sampled with hysteresis; sustained degradation
// quarantines the failing component and fails its traffic over to the kernel
// interposition slow path, and a probation window restores it. With the
// monitor on, the flow cache (enabled before or after) verifies its entries'
// checksums. Idempotent; returns the monitor either way. Start it with
// Health().Start — like the overload watchdog, its sampler is paused across
// Run's drain.
func (s *System) EnableHealth(cfg health.Config) *health.Monitor {
	if s.hm == nil {
		s.hm = health.New(s.w.Eng, s.w.NIC, cfg)
		s.attach(partHealth, s.hm)
	}
	return s.hm
}

// Health returns the health monitor, nil before EnableHealth.
func (s *System) Health() *health.Monitor { return s.hm }

// HealthComponentStatus is one NIC component's health row in a HealthStatus
// snapshot.
type HealthComponentStatus struct {
	Component   string `json:"component"`
	State       string `json:"state"`
	Signals     uint64 `json:"signals"`
	Quarantines uint64 `json:"quarantines"`
	Failovers   uint64 `json:"failovers"`
	Failbacks   uint64 `json:"failbacks"`
}

// HealthStatus is a point-in-time snapshot of the health subsystem, shaped
// for the ctl health.status op and nnetstat -health.
type HealthStatus struct {
	Enabled     bool                    `json:"enabled"`
	Watching    bool                    `json:"watching"`
	Samples     uint64                  `json:"samples"`
	Quarantines uint64                  `json:"quarantines"`
	Failovers   uint64                  `json:"failovers"`
	Failbacks   uint64                  `json:"failbacks"`
	Probes      uint64                  `json:"probes"`
	Components  []HealthComponentStatus `json:"components,omitempty"`
}

// HealthStatus snapshots the health monitor; Enabled is false before
// EnableHealth (graceful degradation, like FlowCacheStatus).
func (s *System) HealthStatus() HealthStatus {
	if s.hm == nil {
		return HealthStatus{}
	}
	st := HealthStatus{
		Enabled:     true,
		Watching:    s.hm.Running(),
		Samples:     s.hm.Samples,
		Quarantines: s.hm.Quarantines,
		Failovers:   s.hm.Failovers,
		Failbacks:   s.hm.Failbacks,
		Probes:      s.hm.Probes,
	}
	for _, c := range s.hm.Status() {
		st.Components = append(st.Components, HealthComponentStatus{
			Component:   string(c.Component),
			State:       c.State.String(),
			Signals:     c.Signals,
			Quarantines: c.Quarantines,
			Failovers:   c.Failovers,
			Failbacks:   c.Failbacks,
		})
	}
	return st
}
