package filter

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

// compileText is CompileOverlay as it was when it printed the chain as
// overlay assembly and parsed the text back with overlay.Assemble, kept
// verbatim (renamed, with its two helpers) as the oracle the typed compiler
// is held to.
func compileText(name string, c *Chain, internCmd func(string) uint64) (*overlay.Program, error) {
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

// TestCompileOverlayMatchesText: over random chains, with and without a
// command interner, the typed compiler builds exactly the program the text
// emitter assembled (name, code, counters) or fails with the same error, and
// each compiled program survives Disassemble → Assemble unchanged.
func TestCompileOverlayMatchesText(t *testing.T) {
	rng := sim.NewRNG(50, "compile-oracle")
	intern := func(c string) uint64 { return uint64(internFuzz(c)) }
	var empty, failed int
	for i := 0; i < 3000; i++ {
		chain, in := randomChain(rng), intern
		if rng.Intn(8) == 0 {
			in = nil
		}
		if len(chain.Rules) == 0 {
			empty++
		}
		if !compilesAsText(t, chain, in) {
			failed++
		}
	}
	if empty == 0 || failed == 0 {
		t.Fatalf("the generator missed a case: %d empty chains, %d refused compiles", empty, failed)
	}
	// Past the verifier's length bound both refuse, with the same error.
	long := &Chain{Policy: ActDrop}
	for i := 0; i < 2000; i++ {
		long.Rules = append(long.Rules, &Rule{Proto: Proto(packet.ProtoUDP), DstPorts: Ports(1, 2), Action: ActAccept})
	}
	if compilesAsText(t, long, nil) {
		t.Fatal("a 2,000-rule chain compiled past MaxProgramLen")
	}
}

// compilesAsText compiles chain both ways, fails t on any difference, and
// reports whether the compile succeeded.
func compilesAsText(t *testing.T, chain *Chain, intern func(string) uint64) bool {
	t.Helper()
	got, gerr := CompileOverlay("fw", chain, intern)
	want, werr := compileText("fw", chain, intern)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("errors differ: typed %v, text %v", gerr, werr)
	}
	if gerr != nil {
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("programs differ:\ntyped:\n%s\ntext:\n%s", overlay.Disassemble(got), overlay.Disassemble(want))
	}
	back, err := overlay.Assemble(got.Name, overlay.Disassemble(got))
	if err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("Disassemble → Assemble does not round-trip (%v):\n%s", err, overlay.Disassemble(got))
	}
	return true
}
