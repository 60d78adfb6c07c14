package overlay

import (
	"fmt"
	"strings"
	"testing"

	"norman/internal/packet"
)

var benchProg = `
.table flows 1024
.meter lim 1000000000 150000
.counter hits
ldf r0, proto
jne r0, 17, out
ldf r1, dst_port
jlt r1, 1000, out
jgt r1, 2000, out
ldf r2, len
meter r3, lim, r2
jeq r3, 0, shed
ldf r4, conn
lookup r5, flows, r4, out
count hits
setf class, r5
pass
shed:
drop
out:
pass
`

// aclSource is normbench's ingress chain (bench/rx.go, which is frozen and
// unexported): a 31-rule port blocklist no frame matches, a mark rewrite,
// pass — rx_fastpath's chain — and with perFlowState a lookup and a per-flow
// update on top, rx_slowpath's.
func aclSource(perFlowState bool) string {
	var b strings.Builder
	if perFlowState {
		b.WriteString(".table seen 4096\n")
	}
	b.WriteString("ldf r0, dst_port\n")
	for i := 0; i < 31; i++ {
		fmt.Fprintf(&b, "jeq r0, %d, blocked\n", 9000+i)
	}
	if perFlowState {
		b.WriteString("ldf r3, src_port\nshl r3, 16\nor r3, r0\n")
		b.WriteString("lookup r4, seen, r3, first\n")
		b.WriteString("add r4, 1\nupdate seen, r3, r4\njmp mark\n")
		b.WriteString("first:\nldi r4, 1\nupdate seen, r3, r4\n")
		b.WriteString("mark:\n")
	}
	b.WriteString("ldi r2, 7\nsetf mark, r2\npass\nblocked:\ndrop\n")
	return b.String()
}

// aclFlows is how many flows the ACL benchmarks and the allocation pin cycle
// through, as rx_slowpath does.
const aclFlows = 256

// aclMachine loads an ACL chain and returns it with one packet per flow, each
// already seen once so the per-flow table is in its steady state.
func aclMachine(tb testing.TB, perFlowState bool) (*Machine, []*packet.Packet) {
	p, err := Assemble("acl", aclSource(perFlowState))
	if err != nil {
		tb.Fatal(err)
	}
	m := NewMachine(p)
	pkts := make([]*packet.Packet, aclFlows)
	for i := range pkts {
		pkts[i] = packet.NewUDP(packet.MAC{}, packet.MAC{}, 1, 2, uint16(20000+i), 5001, 256)
		if v, _, err := m.Run(pkts[i], NopEnv{}); err != nil || v != VerdictPass {
			tb.Fatalf("warm-up run: %v %v", v, err)
		}
	}
	return m, pkts
}

// BenchmarkVMRun measures one Run (what every slow-path KOPI packet pays in
// host time; in virtual time it costs overlay cycles): a representative
// match+meter+table program, and normbench's two ACL chains — acl_per_flow is
// the chain behind rx_slowpath's probe.overlay.run_ns.
func BenchmarkVMRun(b *testing.B) {
	b.Run("match_meter_table", func(b *testing.B) {
		p, err := Assemble("bench", benchProg)
		if err != nil {
			b.Fatal(err)
		}
		m := NewMachine(p)
		_ = m.TableInsert("flows", 1, 3)
		pkt := packet.NewUDP(packet.MAC{}, packet.MAC{}, 1, 2, 99, 1500, 256)
		pkt.Meta.ConnID = 1
		env := NopEnv{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Run(pkt, env)
		}
	})
	for _, c := range []struct {
		name         string
		perFlowState bool
	}{{"acl", false}, {"acl_per_flow", true}} {
		b.Run(c.name, func(b *testing.B) {
			m, pkts := aclMachine(b, c.perFlowState)
			env := NopEnv{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(pkts[i%aclFlows], env)
			}
		})
	}
}

// TestRunZeroAlloc pins the slow path's allocation budget: in steady state a
// Run of the per-flow ACL chain — ladder, lookup, update of a bound table —
// allocates nothing.
func TestRunZeroAlloc(t *testing.T) {
	m, pkts := aclMachine(t, true)
	env := NopEnv{}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		m.Run(pkts[i%aclFlows], env)
		i++
	}); n != 0 {
		t.Fatalf("Run allocates %.2f/op", n)
	}
	if got := m.TableLen("seen"); got != aclFlows {
		t.Fatalf("seen holds %d flows, want %d", got, aclFlows)
	}
}

// BenchmarkAssemble measures compile+verify of the same program.
func BenchmarkAssemble(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Assemble("bench", benchProg); err != nil {
			b.Fatal(err)
		}
	}
}
