package experiments

import (
	"norman"
	"norman/internal/filter"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/stats"
)

// E8Row is one architecture's port-partition enforcement outcome under a
// spoofing workload: the result of the PortPartition scenario.
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
	names := norman.Architectures()
	ruleCounts := []int{16, 128, 1024}
	res := &E8Result{
		Enforcement: make([]E8Row, len(names)),
		Classifier:  make([]E8Classifier, len(ruleCounts)),
	}
	pool := NewRunner()
	for i, name := range names {
		pool.Go(func() { res.Enforcement[i] = PortPartition(name, scale) })
	}
	for i, n := range ruleCounts {
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
