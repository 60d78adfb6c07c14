package experiments

import (
	"errors"

	"norman/internal/arch"
	"norman/internal/filter"
	"norman/internal/host"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
)

// E8Row is one architecture's port-partition enforcement outcome under a
// spoofing workload.
type E8Row struct {
	Arch            string
	PolicyInstalled bool
	LegitPackets    uint64 // postgres frames that reached the wire
	Violations      uint64 // spoofed 5432 frames that escaped
}

// E8Classifier is the software-classifier scaling ablation: average rules
// examined per packet, linear scan vs compiled exact-match fast path.
type E8Classifier struct {
	Rules         int
	LinearEvals   float64
	CompiledEvals float64
}

// E8Result aggregates both parts.
type E8Result struct {
	Enforcement []E8Row
	Classifier  []E8Classifier
}

// RunE8 reproduces the §2 port-partitioning scenario quantitatively: the
// policy "only Bob's postgres may use port 5432" is attacked by Charlie's
// process writing raw frames with destination port 5432. Owner-based rules
// are installable and enforced only where the interposition layer has a
// trusted process view (kernelstack, sidecar, kopi); the hypervisor cannot
// express the rule, and bypass has nowhere to put it. The classifier
// ablation shows why on-NIC enforcement wants exact-match tables: linear
// evaluation cost grows with the rule count, the compiled path does not.
func RunE8(scale Scale) (*E8Result, *stats.Table) {
	names := arch.Names()
	ruleCounts := []int{16, 128, 1024}
	res := &E8Result{
		Enforcement: make([]E8Row, len(names)),
		Classifier:  make([]E8Classifier, len(ruleCounts)),
	}
	pool := NewRunner()
	for i, name := range names {
		i, name := i, name
		pool.Go(func() { res.Enforcement[i] = e8Enforce(name, scale) })
	}
	for i, n := range ruleCounts {
		i, n := i, n
		pool.Go(func() { res.Classifier[i] = e8Classify(n) })
	}
	pool.Wait()

	t := stats.NewTable("E8a: port-partition enforcement under spoofing (uid/cmd owner rules)",
		"arch", "policy installed", "legit delivered", "violations escaped")
	for _, r := range res.Enforcement {
		t.AddRow(r.Arch, r.PolicyInstalled, r.LegitPackets, r.Violations)
	}
	t2 := stats.NewTable("\nE8b: classifier scaling (rules examined per packet)",
		"rules", "linear", "compiled")
	for _, c := range res.Classifier {
		t2.AddRow(c.Rules, c.LinearEvals, c.CompiledEvals)
	}
	return res, composeTables(t, t2)
}

func e8Enforce(name string, scale Scale) E8Row {
	row := E8Row{Arch: name}
	a := arch.New(name, arch.WorldConfig{})
	w := a.World()

	var legit, violations uint64
	w.Peer = func(p *packet.Packet, at sim.Time) {
		if p.UDP == nil || p.UDP.DstPort != 5432 {
			return
		}
		// The receiving side distinguishes the legitimate postgres flow by
		// its source port (5432 both ways in this scenario).
		if p.UDP.SrcPort == 5432 {
			legit++
		} else {
			violations++
		}
	}

	bob := w.Kern.AddUser(1001, "bob")
	charlie := w.Kern.AddUser(1002, "charlie")
	postgres := w.Kern.Spawn(bob.UID, "postgres")
	rogue := w.Kern.Spawn(charlie.UID, "script")

	pgFlow := w.Flow(5432, 5432)
	pgConn, err := a.Connect(postgres, pgFlow)
	if err != nil {
		return row
	}
	rogueFlow := w.Flow(33000, 9)
	rogueConn, err := a.Connect(rogue, rogueFlow)
	if err != nil {
		return row
	}

	allow := &filter.Rule{
		Proto: filter.Proto(packet.ProtoUDP), DstPorts: filter.Port(5432),
		OwnerUID: filter.UID(bob.UID), OwnerCmd: "postgres",
		Action: filter.ActAccept,
	}
	deny := &filter.Rule{
		Proto: filter.Proto(packet.ProtoUDP), DstPorts: filter.Port(5432),
		Action: filter.ActDrop,
	}
	// The policy is transactional: without the owner-scoped allow, the
	// blanket deny would break the legitimate user, so an admin who cannot
	// install the first rule installs neither (the paper's point is that
	// the policy is *unenforceable*, not that port 5432 can be killed).
	err1 := a.InstallRule(filter.HookOutput, allow)
	if err1 == nil {
		err2 := a.InstallRule(filter.HookOutput, deny)
		row.PolicyInstalled = err2 == nil
	} else if !errors.Is(err1, filter.ErrNeedsProcessView) && !errors.Is(err1, arch.ErrUnsupported) {
		panic("e8: unexpected install error: " + err1.Error())
	}

	until := sim.Time(scale.d(4 * sim.Millisecond))
	pg := &host.Sender{Arch: a, Conn: pgConn, Flow: pgFlow, Payload: 200,
		Interval: 20 * sim.Microsecond, Until: until}
	pg.Start(0)
	spoofFlow := w.Flow(33000, 5432)
	rg := &host.Sender{Arch: a, Conn: rogueConn, Flow: rogueFlow, Payload: 200,
		Interval: 20 * sim.Microsecond, Until: until,
		Build: func(uint64) *packet.Packet { return w.UDPTo(spoofFlow, 200) }}
	rg.Start(0)
	balanced(w.Drain())

	row.LegitPackets = legit
	row.Violations = violations
	return row
}

// e8Classify measures average rules-examined per packet for a chain of n
// exact (proto, dstport) drop rules plus the default accept, over a packet
// mix that matches a rule 50% of the time.
func e8Classify(n int) E8Classifier {
	rules := make([]*filter.Rule, 0, n)
	for i := 0; i < n; i++ {
		rules = append(rules, &filter.Rule{
			Proto:    filter.Proto(packet.ProtoUDP),
			DstPorts: filter.Port(uint16(10000 + i)),
			Action:   filter.ActDrop,
		})
	}
	lin := &filter.LinearClassifier{Rules: rules}
	comp := filter.NewCompiledClassifier(rules)

	rng := sim.NewRNG(7, "e8")
	var linTotal, compTotal int
	const trials = 4096
	for i := 0; i < trials; i++ {
		var dport uint16
		if rng.Intn(2) == 0 {
			dport = uint16(10000 + rng.Intn(n)) // hits a rule
		} else {
			dport = uint16(40000 + rng.Intn(1000)) // misses all
		}
		p := packet.NewUDP(packet.MAC{}, packet.MAC{}, 1, 2, 1111, dport, 64)
		_, c1 := lin.Classify(p)
		_, c2 := comp.Classify(p)
		linTotal += c1
		compTotal += c2
	}
	return E8Classifier{
		Rules:         n,
		LinearEvals:   float64(linTotal) / trials,
		CompiledEvals: float64(compTotal) / trials,
	}
}
