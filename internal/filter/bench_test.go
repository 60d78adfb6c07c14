package filter

import (
	"testing"

	"norman/internal/packet"
)

func benchRules(n int) []*Rule {
	rules := make([]*Rule, 0, n)
	for i := 0; i < n; i++ {
		rules = append(rules, &Rule{
			Proto:    Proto(packet.ProtoUDP),
			DstPorts: Port(uint16(10000 + i)),
			Action:   ActDrop,
		})
	}
	return rules
}

// BenchmarkLinearClassify1024 is the software-iptables worst case E8b
// quantifies in rules-examined; this is its host-time counterpart.
func BenchmarkLinearClassify1024(b *testing.B) {
	c := &LinearClassifier{Rules: benchRules(1024)}
	p := udp(1, 2, 3, 40000) // matches nothing: full scan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(p)
	}
}

// BenchmarkCompiledClassify1024 is the exact-match fast path.
func BenchmarkCompiledClassify1024(b *testing.B) {
	c := NewCompiledClassifier(benchRules(1024))
	p := udp(1, 2, 3, 40000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(p)
	}
}
