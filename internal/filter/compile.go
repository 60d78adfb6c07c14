package filter

import (
	"fmt"
	"strconv"

	"norman/internal/overlay"
)

// nextRule is the jump target a rule's mismatch branches carry until the rule
// ends and the next rule's first instruction is known.
const nextRule = -2

// CompileOverlay translates a chain into an overlay program, which is how
// the Norman kernel pushes iptables state to the SmartNIC (§4.4): rules
// become straight-line match/jump sequences, counters become overlay
// counters, and the chain policy becomes the fall-through verdict. It emits
// instructions directly and ends in overlay.NewProgram, the verifier
// overlay.Assemble ends in.
//
// Overlay uid/pid/cmd_id fields are stamped by the NIC from the kernel-owned
// connection table, so owner matches compiled here are trusted — this
// compilation path only exists on the KOPI architecture, which is exactly
// the paper's point. internCmd maps a command name to the small integer id
// the kernel programs into connection metadata; it may be nil when no rule
// uses cmd-owner.
func CompileOverlay(name string, c *Chain, internCmd func(string) uint64) (*overlay.Program, error) {
	// A rule matching a protocol and a port, then counting and acting, is
	// six instructions; most chains fit without regrowing the code.
	p := overlay.Program{Name: name, Code: make([]overlay.Inst, 0, 8*len(c.Rules)+1)}
	emit := func(in ...overlay.Inst) { p.Code = append(p.Code, in...) }
	ldf := func(f overlay.Field) overlay.Inst { return overlay.Inst{Op: overlay.OpLdf, F: f, Target: -1} }
	// jump branches to the next rule when the loaded value compares true
	// against v.
	jump := func(op overlay.Op, v uint64) overlay.Inst {
		return overlay.Inst{Op: op, Imm: true, Val: v, Target: nextRule}
	}
	ports := func(f overlay.Field, r PortRange) {
		if r.Lo == r.Hi {
			emit(ldf(f), jump(overlay.OpJne, uint64(r.Lo)))
		} else {
			emit(ldf(f), jump(overlay.OpJlt, uint64(r.Lo)), jump(overlay.OpJgt, uint64(r.Hi)))
		}
	}
	prefix := func(f overlay.Field, n Prefix) {
		if n.Bits <= 0 {
			return // wildcard
		}
		mask := uint64(0xffffffff)
		if n.Bits < 32 {
			mask = mask << (32 - n.Bits) & 0xffffffff
		}
		emit(ldf(f), overlay.Inst{Op: overlay.OpAnd, Imm: true, Val: mask, Target: -1}, jump(overlay.OpJne, uint64(n.Net)&mask))
	}

	for i, r := range c.Rules {
		// Every rule gets a hit counter (what `iptables -L -v` reports); the
		// counter for rule i is named hit<i>.
		p.Counters = append(p.Counters, overlay.CounterSpec{Name: "hit" + strconv.Itoa(i)})
		start := len(p.Code)
		if r.Proto != nil {
			emit(ldf(overlay.FProto), jump(overlay.OpJne, uint64(*r.Proto)))
		}
		if r.SrcNet != nil {
			prefix(overlay.FSrcIP, *r.SrcNet)
		}
		if r.DstNet != nil {
			prefix(overlay.FDstIP, *r.DstNet)
		}
		if r.SrcPorts != nil {
			ports(overlay.FSrcPort, *r.SrcPorts)
		}
		if r.DstPorts != nil {
			ports(overlay.FDstPort, *r.DstPorts)
		}
		if r.OwnerUID != nil {
			emit(ldf(overlay.FUID), jump(overlay.OpJne, uint64(*r.OwnerUID)))
		}
		if r.OwnerCmd != "" {
			if internCmd == nil {
				return nil, fmt.Errorf("filter: rule %d uses cmd-owner but no command interner was provided", i)
			}
			emit(ldf(overlay.FCmdID), jump(overlay.OpJne, internCmd(r.OwnerCmd)))
		}

		// Count, then act; count and log continue evaluation.
		emit(overlay.Inst{Op: overlay.OpCount, Index: i, Target: -1})
		switch r.Action {
		case ActAccept:
			emit(overlay.Inst{Op: overlay.OpPass, Target: -1})
		case ActDrop:
			emit(overlay.Inst{Op: overlay.OpDrop, Target: -1})
		case ActMark:
			emit(overlay.Inst{Op: overlay.OpLdi, A: 2, Val: uint64(r.MarkVal), Target: -1},
				overlay.Inst{Op: overlay.OpSetf, F: overlay.FMark, B: 2, Target: -1})
		}
		for j := start; j < len(p.Code); j++ {
			if p.Code[j].Target == nextRule {
				p.Code[j].Target = len(p.Code)
			}
		}
	}

	// Chain policy.
	policy := overlay.OpDrop
	if c.Policy == ActAccept {
		policy = overlay.OpPass
	}
	emit(overlay.Inst{Op: policy, Target: -1})
	return overlay.NewProgram(p)
}
