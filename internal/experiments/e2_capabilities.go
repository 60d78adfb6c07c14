package experiments

import (
	"norman"
	"norman/internal/arch"
	"norman/internal/sim"
	"norman/internal/stats"
	"norman/internal/wire"
)

// Capability levels in the E2 matrix.
type CapLevel int

// Levels: No (cannot be done at all), Partial (works but without the
// process view the scenario actually needs), Yes (scenario fully solved).
const (
	CapNo CapLevel = iota
	CapPartial
	CapYes
)

func (l CapLevel) String() string {
	switch l {
	case CapYes:
		return "yes"
	case CapPartial:
		return "partial"
	default:
		return "no"
	}
}

// E2Result is the behavioral capability matrix: scenario -> arch -> level.
// Every cell is established by *running* the scenario, not by reading a
// capability flag.
type E2Result struct {
	Scenarios []string
	Archs     []string
	Cells     map[string]map[string]CapLevel
}

// Level returns a cell.
func (r *E2Result) Level(scenario, archName string) CapLevel {
	return r.Cells[scenario][archName]
}

// RunE2 reproduces §2: the four management scenarios (debugging, port
// partitioning, process scheduling, QoS) against all five architectures,
// plus a fifth row for the most basic tool of all — ping. Each scenario cell
// runs the shared facade scenario the §2 examples print (scenarios.go) and
// grades its outcome; the QoS cell's WFQ weights the backup 8:1. Expected
// shape: kernelstack/sidecar/kopi solve all five; hypervisor gets partial
// debugging (sees frames, cannot attribute) and partial QoS (flow-level
// only); bypass solves none.
func RunE2(scale Scale) (*E2Result, *stats.Table) {
	res := &E2Result{
		Scenarios: []string{"debugging", "port-partition", "scheduling", "qos", "ping"},
		Archs:     arch.Names(),
		Cells:     map[string]map[string]CapLevel{},
	}
	for _, s := range res.Scenarios {
		res.Cells[s] = map[string]CapLevel{}
	}
	// Each cell runs its scenario in a fresh world, so the whole matrix
	// fans out. Tasks write into a slot matrix (maps are not safe for
	// concurrent writes); the maps are assembled after the Wait.
	cells := map[string]func(norman.Architecture) CapLevel{
		"debugging": func(a norman.Architecture) CapLevel {
			r := ARPFlood(a, scale)
			return grade(r.Named, r.Matched > 0)
		},
		"port-partition": func(a norman.Architecture) CapLevel {
			r := PortPartition(a, scale)
			return grade(r.PolicyInstalled && r.Violations == 0 && r.LegitPackets > 0, false)
		},
		"scheduling": func(a norman.Architecture) CapLevel {
			r := Blocking(a, scale)[1]
			return grade(r.Err == nil && r.Delivered > 0, false)
		},
		"qos": func(a norman.Architecture) CapLevel {
			// Weights respected, or a scheduler blind to users (~1:1).
			r := QoSShare(a, scale)
			return grade(r.Ratio > 2, r.Ratio > 0.5 && r.Ratio < 2)
		},
		"ping": e2Ping,
	}
	levels := make([][]CapLevel, len(res.Scenarios))
	r := NewRunner()
	for i, s := range res.Scenarios {
		levels[i] = make([]CapLevel, len(res.Archs))
		run := cells[s]
		for j, name := range res.Archs {
			r.Go(func() { levels[i][j] = run(norman.Architecture(name)) })
		}
	}
	r.Wait()
	for i, s := range res.Scenarios {
		for j, name := range res.Archs {
			res.Cells[s][name] = levels[i][j]
		}
	}

	t := stats.NewTable("E2: §2 management scenarios by architecture (behavioral)",
		append([]string{"scenario"}, res.Archs...)...)
	for _, s := range res.Scenarios {
		row := []interface{}{s}
		for _, a := range res.Archs {
			row = append(row, res.Cells[s][a].String())
		}
		t.AddRow(row...)
	}
	return res, t
}

// grade is a cell's level: yes when the scenario is solved, partial when it
// is only partly solved (the process view is missing), no otherwise.
func grade(solved, partly bool) CapLevel {
	switch {
	case solved:
		return CapYes
	case partly:
		return CapPartial
	}
	return CapNo
}

// e2Ping: the most basic admin tool — can the kernel still send an ICMP
// echo and see the reply? (An instance of §2's broader point that the
// kernel has lost all dataplane visibility.)
func e2Ping(name norman.Architecture) CapLevel {
	a := arch.New(string(name), arch.WorldConfig{})
	w := a.World()
	wire.NewNetwork(a).AddEndpoint(w.PeerIP, w.PeerMAC, nil)
	ok := false
	if err := a.Ping(w.PeerIP, 56, func(_ sim.Duration, o bool) { ok = o }); err != nil {
		return CapNo
	}
	balanced(w.Drain())
	return grade(ok, false)
}
