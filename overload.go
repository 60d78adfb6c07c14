package norman

import "norman/internal/overload"

// ErrAdmission re-exports the typed admission-rejection sentinel so API
// users can errors.Is against the public package.
var ErrAdmission = overload.ErrAdmission

// EnableOverload attaches the overload governor: Dial admission consults its
// budgets (DDIO ring share, per-tenant connection caps, watchdog
// saturation), a weighted qdisc (TCSet, before or after this call) also
// drives the priority-aware ingress shed policy, tenant isolation splits the
// budgets per tenant, and the watchdog — once started with Overload().Start —
// samples ring and FIFO occupancy into its health state and counts each
// pressure edge. Idempotent; returns the governor either way.
//
// The watchdog samples on a virtual-time timer, so it keeps the engine
// non-quiescent: Run pauses it for the drain and resumes it after, while
// bounded stepping (RunFor, the ctl server, experiment horizons) runs it
// live.
func (s *System) EnableOverload(cfg overload.Config) *overload.Governor {
	if s.gov == nil {
		s.gov = overload.NewGovernor(s.w.Eng, s.w.NIC, s.w.LLC, cfg)
		s.attach(partGovernor, s.gov)
	}
	return s.gov
}

// Overload returns the overload governor, nil before EnableOverload.
func (s *System) Overload() *overload.Governor { return s.gov }
