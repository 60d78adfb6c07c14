package upgrade

import (
	"reflect"
	"testing"

	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

// cacheableACL is a flow-memoizable ingress chain: it reads only the flow's
// own fields and keeps no state, so the NIC's install gate admits its
// verdicts to the flow cache.
const cacheableACL = `ldf r0, dst_port
jeq r0, 9000, blocked
ldi r2, 7
setf mark, r2
pass
blocked:
drop
`

// handoverWorld is a bare NIC running acl with a flow cache holding n
// entries computed under it, and a manager over it.
func handoverWorld(t *testing.T, acl *overlay.Program, n int) (*sim.Engine, *nic.NIC, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	nc := nic.New(nic.Config{Engine: eng, Model: timing.Default()})
	if err := nc.EnableFlowCache(64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.LoadProgram(nic.Ingress, acl); err != nil {
		t.Fatal(err)
	}
	if !nc.IngressCacheable() {
		t.Fatal("the test ACL must be cacheable")
	}
	for i := 0; i < n; i++ {
		k := packet.FlowKey{Src: packet.MakeIP(10, 0, 0, 2), Dst: packet.MakeIP(10, 0, 0, 1),
			SrcPort: 7, DstPort: uint16(2000 + i), Proto: packet.ProtoUDP}
		if !nc.FlowCache().Install(k, uint64(i+1), 1, overlay.VerdictPass, 7, 0) {
			t.Fatalf("install %d refused", i)
		}
	}
	return eng, nc, New(eng, nc, Config{})
}

func mustACL(t *testing.T) *overlay.Program {
	t.Helper()
	p, err := overlay.Assemble("acl", cacheableACL)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHandover pins what one generation hands the next: Stage captures the
// live ingress chain and every flow-cache entry; a cutover that stages that
// same chain warm-installs all of the entries into the new generation's
// (flushed) cache; a cutover to a different chain — even one assembled from
// the same source — installs none, because a memoized verdict is only valid
// under the chain that computed it.
func TestHandover(t *testing.T) {
	const entries = 12
	for _, tc := range []struct {
		name     string
		sameProg bool
		want     int
	}{
		{"same chain warms every entry", true, entries},
		{"different chain starts cold", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := mustACL(t)
			eng, nc, m := handoverWorld(t, live, entries)
			cached := nc.FlowCache().Export()
			if len(cached) != entries {
				t.Fatalf("cache holds %d entries, want %d", len(cached), entries)
			}

			next := live
			if !tc.sameProg {
				next = mustACL(t)
			}
			if err := m.Stage(0, next, nil); err != nil {
				t.Fatal(err)
			}
			if m.pre == nil || m.pre.ingress != live {
				t.Fatal("Stage did not capture the live ingress chain")
			}
			if !reflect.DeepEqual(m.pre.cache, cached) {
				t.Fatalf("Stage captured %d cache entries, want the %d live ones", len(m.pre.cache), len(cached))
			}

			if _, err := m.CutOver(0); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if m.Phase() != Committed {
				t.Fatalf("phase %v after the canary window, want committed", m.Phase())
			}
			if got := int(m.WarmEntries); got != tc.want {
				t.Fatalf("warm-transferred %d entries, want %d", got, tc.want)
			}
			got := nc.FlowCache().Export()
			if tc.want == 0 && len(got) != 0 {
				t.Fatalf("a different chain inherited %d cached verdicts", len(got))
			}
			if tc.want > 0 && !reflect.DeepEqual(got, cached) {
				t.Fatalf("new generation's cache holds %d entries, want the %d staged ones", len(got), len(cached))
			}
		})
	}
}
