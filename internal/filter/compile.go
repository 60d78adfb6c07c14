package filter

import (
	"fmt"
	"strings"

	"norman/internal/overlay"
)

// CompileOverlay translates a chain into an overlay program, which is how
// the Norman kernel pushes iptables state to the SmartNIC (§4.4): rules
// become straight-line match/jump sequences, counters become overlay
// counters, and the chain policy becomes the fall-through verdict.
//
// Overlay uid/pid/cmd_id fields are stamped by the NIC from the kernel-owned
// connection table, so owner matches compiled here are trusted — this
// compilation path only exists on the KOPI architecture, which is exactly
// the paper's point. internCmd maps a command name to the small integer id
// the kernel programs into connection metadata; it may be nil when no rule
// uses cmd-owner.
func CompileOverlay(name string, c *Chain, internCmd func(string) uint64) (*overlay.Program, error) {
	var b strings.Builder

	// Every rule gets a hit counter (what `iptables -L -v` reports); the
	// counter for rule i is named hit<i>.
	for i := range c.Rules {
		fmt.Fprintf(&b, ".counter hit%d\n", i)
	}

	for i, r := range c.Rules {
		next := fmt.Sprintf("rule%d", i+1)

		if r.Proto != nil {
			fmt.Fprintf(&b, "ldf r0, proto\njne r0, %d, %s\n", *r.Proto, next)
		}
		if r.SrcNet != nil {
			emitPrefix(&b, "src_ip", *r.SrcNet, next)
		}
		if r.DstNet != nil {
			emitPrefix(&b, "dst_ip", *r.DstNet, next)
		}
		if r.SrcPorts != nil {
			emitRange(&b, "src_port", *r.SrcPorts, next)
		}
		if r.DstPorts != nil {
			emitRange(&b, "dst_port", *r.DstPorts, next)
		}
		if r.OwnerUID != nil {
			fmt.Fprintf(&b, "ldf r0, uid\njne r0, %d, %s\n", *r.OwnerUID, next)
		}
		if r.OwnerCmd != "" {
			if internCmd == nil {
				return nil, fmt.Errorf("filter: rule %d uses cmd-owner but no command interner was provided", i)
			}
			fmt.Fprintf(&b, "ldf r0, cmd_id\njne r0, %d, %s\n", internCmd(r.OwnerCmd), next)
		}

		fmt.Fprintf(&b, "count hit%d\n", i)
		switch r.Action {
		case ActAccept:
			b.WriteString("pass\n")
		case ActDrop:
			b.WriteString("drop\n")
		case ActCount, ActLog:
			// counted above; evaluation continues
		case ActMark:
			fmt.Fprintf(&b, "ldi r2, %d\nsetf mark, r2\n", r.MarkVal)
		}
		fmt.Fprintf(&b, "rule%d:\n", i+1)
	}

	// Chain policy.
	if c.Policy == ActAccept {
		b.WriteString("pass\n")
	} else {
		b.WriteString("drop\n")
	}

	return overlay.Assemble(name, b.String())
}

func emitPrefix(b *strings.Builder, field string, p Prefix, next string) {
	if p.Bits <= 0 {
		return // wildcard
	}
	mask := uint64(0xffffffff)
	if p.Bits < 32 {
		mask = mask << (32 - p.Bits) & 0xffffffff
	}
	want := uint64(p.Net) & mask
	fmt.Fprintf(b, "ldf r0, %s\nand r0, %d\njne r0, %d, %s\n", field, mask, want, next)
}

func emitRange(b *strings.Builder, field string, r PortRange, next string) {
	if r.Lo == r.Hi {
		fmt.Fprintf(b, "ldf r0, %s\njne r0, %d, %s\n", field, r.Lo, next)
		return
	}
	fmt.Fprintf(b, "ldf r0, %s\njlt r0, %d, %s\njgt r0, %d, %s\n", field, r.Lo, next, r.Hi, next)
}
