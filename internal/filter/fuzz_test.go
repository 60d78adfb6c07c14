package filter

import (
	"testing"
	"testing/quick"

	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

// randomChain builds an arbitrary chain from an RNG: every matcher kind
// (prefixes from /0 to /32, single ports and ranges), every terminal and
// non-terminal action, random policies, and now and then no rules at all.
func randomChain(rng *sim.RNG) *Chain {
	c := &Chain{Name: "OUTPUT", Policy: ActAccept}
	if rng.Intn(3) == 0 {
		c.Policy = ActDrop
	}
	n := rng.Intn(11)
	for i := 0; i < n; i++ {
		r := &Rule{}
		switch rng.Intn(5) {
		case 0:
			r.Action = ActAccept
		case 1:
			r.Action = ActDrop
		case 2:
			r.Action = ActCount
		case 3:
			r.Action = ActMark
			r.MarkVal = uint32(rng.Intn(100) + 1)
		case 4:
			r.Action = ActLog
		}
		if rng.Intn(2) == 0 {
			r.Proto = Proto([]uint8{packet.ProtoUDP, packet.ProtoTCP}[rng.Intn(2)])
		}
		if rng.Intn(3) == 0 {
			r.SrcNet = Net(packet.MakeIP(10, byte(rng.Intn(4)), 0, 0), []int{0, 8, 16, 24, 32}[rng.Intn(5)])
		}
		if rng.Intn(3) == 0 {
			r.DstNet = Net(packet.MakeIP(10, 0, byte(rng.Intn(4)), byte(rng.Intn(8))), []int{0, 24, 32}[rng.Intn(3)])
		}
		if rng.Intn(2) == 0 {
			lo := uint16(1000 + rng.Intn(50))
			if rng.Intn(2) == 0 {
				r.DstPorts = Port(lo)
			} else {
				r.DstPorts = Ports(lo, lo+uint16(rng.Intn(20)))
			}
		}
		if rng.Intn(4) == 0 {
			r.SrcPorts = Port(uint16(2000 + rng.Intn(20)))
		}
		if rng.Intn(4) == 0 {
			r.OwnerUID = UID(uint32(1000 + rng.Intn(3)))
		}
		if rng.Intn(5) == 0 {
			r.OwnerCmd = []string{"postgres", "mysqld", "game"}[rng.Intn(3)]
		}
		c.Rules = append(c.Rules, r)
	}
	return c
}

// randomPacket builds a packet from the same value universe the chains
// match on, with a mix of trusted/untrusted metadata.
func randomPacket(rng *sim.RNG) *packet.Packet {
	if rng.Intn(8) == 0 {
		return packet.NewARPRequest(packet.MAC{}, 1, 2)
	}
	src := packet.MakeIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(8)))
	dst := packet.MakeIP(10, 0, byte(rng.Intn(4)), byte(rng.Intn(8)))
	sport := uint16(2000 + rng.Intn(25))
	dport := uint16(1000 + rng.Intn(80))
	var p *packet.Packet
	if rng.Intn(2) == 0 {
		p = packet.NewUDP(packet.MAC{}, packet.MAC{}, src, dst, sport, dport, 64)
	} else {
		p = packet.NewTCP(packet.MAC{}, packet.MAC{}, src, dst, sport, dport, 0, 64)
	}
	if rng.Intn(2) == 0 {
		uid := uint32(1000 + rng.Intn(3))
		cmd := []string{"postgres", "mysqld", "game"}[rng.Intn(3)]
		trusted(p, uid, cmd, internFuzz(cmd))
	}
	return p
}

// internFuzz is the shared deterministic command interner for the fuzz.
func internFuzz(cmd string) uint32 {
	switch cmd {
	case "postgres":
		return 1
	case "mysqld":
		return 2
	case "game":
		return 3
	}
	return 99
}

// TestCompileOverlayRandomChainsEquivalent: for hundreds of random chains
// and packets, the compiled overlay program's verdict AND mark side effect
// must equal the software engine's. This is the safety argument for pushing
// iptables state to the NIC.
func TestCompileOverlayRandomChainsEquivalent(t *testing.T) {
	rng := sim.NewRNG(1234, "chainfuzz")
	f := func(uint8) bool {
		chain := randomChain(rng)
		prog, err := CompileOverlay("fuzz", chain, func(c string) uint64 { return uint64(internFuzz(c)) })
		if err != nil {
			t.Logf("compile failed for %v: %v", chain.Rules, err)
			return false
		}
		if err := overlay.Verify(prog); err != nil {
			t.Logf("verify failed: %v", err)
			return false
		}
		for trial := 0; trial < 25; trial++ {
			// Fresh machine and engine per packet: rule stats are shared
			// state otherwise.
			m := overlay.NewMachine(prog)
			eng := NewEngine(true)
			for _, r := range chain.Rules {
				rc := *r
				if err := eng.Append(HookOutput, &rc); err != nil {
					return false
				}
			}
			_ = eng.SetPolicy(HookOutput, chain.Policy)

			p := randomPacket(rng)
			soft := p.Clone()
			hard := p.Clone()
			res := eng.Evaluate(HookOutput, soft)
			v, _, _ := m.Run(hard, overlay.NopEnv{})
			if (res.Action != ActAccept) != (v == overlay.VerdictDrop) {
				t.Logf("verdict mismatch: soft=%v hard=%v pkt=%+v chain=%v",
					res.Action, v, p, chain.Rules)
				return false
			}
			if soft.Meta.Mark != hard.Meta.Mark {
				t.Logf("mark mismatch: soft=%d hard=%d", soft.Meta.Mark, hard.Meta.Mark)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
