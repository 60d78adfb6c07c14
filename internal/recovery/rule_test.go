package recovery

import (
	"reflect"
	"testing"
)

// TestRuleRoundTrip: RuleOf inverts Compile. A rule lowered and read back is
// the rule in canonical form (an empty action reads back as accept), and
// lowering and reading that back again changes nothing, over every proto,
// action, CIDR, owner and mark. The words Compile does not know are refused.
func TestRuleRoundTrip(t *testing.T) {
	lowerAndRead := func(r Rule) Rule {
		t.Helper()
		fr, err := r.Compile()
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		return RuleOf(fr)
	}
	uid := uint32(1000)
	type owner struct {
		uid *uint32
		cmd string
	}
	for _, proto := range []string{"", "udp", "tcp"} {
		for _, action := range []string{"", "accept", "drop", "count", "log", "mark"} {
			for _, cidr := range []string{"", "10.0.0.0/8", "192.168.1.7/32", "0.0.0.0/0"} {
				for _, o := range []owner{{}, {&uid, ""}, {nil, "svc"}, {&uid, "svc"}} {
					for _, mark := range []uint32{0, 7} {
						r := Rule{Proto: proto, SrcNet: cidr, DstNet: cidr, SrcPort: 53, DstPort: 9999,
							OwnerUID: o.uid, OwnerCmd: o.cmd, Action: action, Mark: mark}
						want := r
						if want.Action == "" {
							want.Action = "accept"
						}
						once := lowerAndRead(r)
						if !reflect.DeepEqual(once, want) {
							t.Fatalf("%+v read back as %+v, want %+v", r, once, want)
						}
						if twice := lowerAndRead(once); !reflect.DeepEqual(twice, once) {
							t.Fatalf("%+v read back as %+v, then %+v", r, once, twice)
						}
					}
				}
			}
		}
	}
	for _, bad := range []Rule{{Proto: "sctp"}, {Action: "bogus"}, {SrcNet: "10.0.0/8"}} {
		if _, err := bad.Compile(); err == nil {
			t.Fatalf("%+v compiled", bad)
		}
	}
}
