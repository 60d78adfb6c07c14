package filter

import (
	"errors"
	"testing"
	"testing/quick"

	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

func udp(src, dst packet.IPv4, sport, dport uint16) *packet.Packet {
	return packet.NewUDP(packet.MAC{}, packet.MAC{}, src, dst, sport, dport, 64)
}

func trusted(p *packet.Packet, uid uint32, cmd string, cmdID uint32) *packet.Packet {
	p.Meta.UID = uid
	p.Meta.Command = cmd
	p.Meta.CommandID = cmdID
	p.Meta.TrustedMeta = true
	return p
}

func TestRuleMatchers(t *testing.T) {
	r := &Rule{
		Proto:    Proto(packet.ProtoUDP),
		SrcNet:   Net(packet.MakeIP(10, 0, 0, 0), 8),
		DstPorts: Ports(5000, 5100),
		Action:   ActDrop,
	}
	if !r.Matches(udp(packet.MakeIP(10, 1, 1, 1), 2, 1, 5050)) {
		t.Fatal("should match")
	}
	if r.Matches(udp(packet.MakeIP(11, 1, 1, 1), 2, 1, 5050)) {
		t.Fatal("wrong prefix should not match")
	}
	if r.Matches(udp(packet.MakeIP(10, 1, 1, 1), 2, 1, 4999)) {
		t.Fatal("port below range should not match")
	}
	tcp := packet.NewTCP(packet.MAC{}, packet.MAC{}, packet.MakeIP(10, 1, 1, 1), 2, 1, 5050, 0, 0)
	if r.Matches(tcp) {
		t.Fatal("wrong proto should not match")
	}
}

func TestOwnerMatchNeedsTrustedMeta(t *testing.T) {
	r := &Rule{OwnerUID: UID(1001), Action: ActAccept}
	p := udp(1, 2, 3, 4)
	p.Meta.UID = 1001 // claimed, not trusted
	if r.Matches(p) {
		t.Fatal("untrusted claims must never match owner rules")
	}
	trusted(p, 1001, "x", 1)
	if !r.Matches(p) {
		t.Fatal("trusted uid should match")
	}
	rc := &Rule{OwnerCmd: "postgres", Action: ActAccept}
	if rc.Matches(p) {
		t.Fatal("wrong command")
	}
	p.Meta.Command = "postgres"
	if !rc.Matches(p) {
		t.Fatal("command should match")
	}
}

func TestEngineOrderAndPolicy(t *testing.T) {
	e := NewEngine(true)
	mustAppend := func(h Hook, r *Rule) {
		t.Helper()
		if err := e.Append(h, r); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(HookOutput, &Rule{DstPorts: Port(80), Action: ActAccept})
	mustAppend(HookOutput, &Rule{Proto: Proto(packet.ProtoUDP), Action: ActDrop})

	res := e.Evaluate(HookOutput, udp(1, 2, 3, 80))
	if res.Action != ActAccept || res.RulesEvaluated != 1 {
		t.Fatalf("first-match-wins violated: %+v", res)
	}
	res = e.Evaluate(HookOutput, udp(1, 2, 3, 81))
	if res.Action != ActDrop || res.RulesEvaluated != 2 {
		t.Fatalf("second rule: %+v", res)
	}

	if err := e.SetPolicy(HookOutput, ActDrop); err != nil {
		t.Fatal(err)
	}
	e.Flush(HookOutput)
	if res := e.Evaluate(HookOutput, udp(1, 2, 3, 80)); res.Action != ActDrop {
		t.Fatal("policy should apply after flush")
	}
	if err := e.SetPolicy(HookOutput, ActCount); err == nil {
		t.Fatal("non-terminal policy must be rejected")
	}
}

func TestEngineNonTerminalActions(t *testing.T) {
	e := NewEngine(true)
	_ = e.Append(HookInput, &Rule{Action: ActCount, Name: "count-all"})
	_ = e.Append(HookInput, &Rule{Action: ActMark, MarkVal: 9})
	p := udp(1, 2, 3, 4)
	res := e.Evaluate(HookInput, p)
	if res.Action != ActAccept {
		t.Fatalf("fallthrough to policy: %v", res.Action)
	}
	if p.Meta.Mark != 9 {
		t.Fatal("mark not applied")
	}
	if e.Chain(HookInput).Rules[0].Packets != 1 {
		t.Fatal("count rule should tally")
	}
}

func TestEngineRefusesOwnerRulesWithoutProcessView(t *testing.T) {
	e := NewEngine(false)
	err := e.Append(HookOutput, &Rule{OwnerUID: UID(1), Action: ActDrop})
	if !errors.Is(err, ErrNeedsProcessView) {
		t.Fatalf("want ErrNeedsProcessView, got %v", err)
	}
	if err := e.Append(HookOutput, &Rule{DstPorts: Port(80), Action: ActDrop}); err != nil {
		t.Fatalf("plain rules must work: %v", err)
	}
}

// Property: the compiled classifier selects exactly the rule the linear
// reference would, for random rule sets and packets.
func TestCompiledClassifierEquivalenceQuick(t *testing.T) {
	rng := sim.NewRNG(5, "classifier")
	f := func(nRules8 uint8, nPkts8 uint8) bool {
		nRules := int(nRules8%60) + 1
		rules := make([]*Rule, 0, nRules)
		for i := 0; i < nRules; i++ {
			r := &Rule{Action: ActDrop}
			if rng.Intn(2) == 0 {
				r.Action = ActAccept
			}
			switch rng.Intn(3) {
			case 0: // fast-pathable: exact proto+port
				r.Proto = Proto(packet.ProtoUDP)
				r.DstPorts = Port(uint16(1000 + rng.Intn(30)))
			case 1: // range rule (residue)
				lo := uint16(1000 + rng.Intn(20))
				r.DstPorts = Ports(lo, lo+10)
			case 2: // prefix rule (residue)
				r.SrcNet = Net(packet.MakeIP(10, byte(rng.Intn(4)), 0, 0), 16)
			}
			rules = append(rules, r)
		}
		lin := &LinearClassifier{Rules: rules}
		comp := NewCompiledClassifier(rules)
		for i := 0; i < int(nPkts8%40)+5; i++ {
			p := udp(packet.MakeIP(10, byte(rng.Intn(4)), 1, 1), 2,
				uint16(rng.Intn(3000)), uint16(1000+rng.Intn(40)))
			want, _ := lin.Classify(p)
			got, _ := comp.Classify(p)
			if want != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain compiled to the overlay gives the same verdict as the
// software engine for random packets — the KOPI offload is semantics
// preserving.
func TestCompileOverlayEquivalenceQuick(t *testing.T) {
	chain := &Chain{Name: "OUTPUT", Policy: ActAccept, Rules: []*Rule{
		{Proto: Proto(packet.ProtoUDP), DstPorts: Port(5432),
			OwnerUID: UID(1001), OwnerCmd: "postgres", Action: ActAccept},
		{Proto: Proto(packet.ProtoUDP), DstPorts: Port(5432), Action: ActDrop},
		{SrcNet: Net(packet.MakeIP(10, 9, 0, 0), 16), Action: ActDrop},
		{Proto: Proto(packet.ProtoUDP), DstPorts: Ports(6000, 6100), Action: ActDrop},
	}}
	intern := func(cmd string) uint64 {
		if cmd == "postgres" {
			return 42
		}
		return 1
	}
	prog, err := CompileOverlay("fw", chain, intern)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	rng := sim.NewRNG(9, "equiv")
	f := func(seed uint16) bool {
		// Fresh engines each trial so rule counters don't alias.
		eng := NewEngine(true)
		for _, r := range chain.Rules {
			rc := *r
			rc.Packets = 0
			if err := eng.Append(HookOutput, &rc); err != nil {
				return false
			}
		}
		m := overlay.NewMachine(prog)

		var p *packet.Packet
		if seed%7 == 0 {
			p = packet.NewARPRequest(packet.MAC{}, 1, 2)
		} else {
			p = udp(packet.MakeIP(10, byte(rng.Intn(16)), 1, 1), 2,
				uint16(rng.Intn(2000)), []uint16{5432, 6050, 80, 6101}[rng.Intn(4)])
			if rng.Intn(2) == 0 {
				trusted(p, 1001, "postgres", 42)
			} else if rng.Intn(2) == 0 {
				trusted(p, 1002, "script", 1)
			}
		}

		res := eng.Evaluate(HookOutput, p.Clone())
		v, _, _ := m.Run(p, overlay.NopEnv{})
		wantDrop := res.Action != ActAccept
		gotDrop := v == overlay.VerdictDrop
		return wantDrop == gotDrop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
