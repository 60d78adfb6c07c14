package arch

import (
	"testing"

	"norman/internal/filter"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
)

// directArchs builds the two direct dataplanes that compile firewall chains
// onto the NIC: KOPI with the kernel's process view, the hypervisor without.
func directArchs() map[string]*direct {
	return map[string]*direct{
		"kopi":       &New("kopi", WorldConfig{}).(*KOPI).direct,
		"hypervisor": &New("hypervisor", WorldConfig{}).(*Hypervisor).direct,
	}
}

func udpTo(dport uint16) *packet.Packet {
	return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, packet.MakeIP(10, 0, 0, 2),
		packet.MakeIP(10, 0, 0, 1), 99, dport, 64)
}

func TestDeployChainsLoadsAndUnloads(t *testing.T) {
	for name, d := range directArchs() {
		if err := d.fw.Append(filter.HookOutput, &filter.Rule{
			Proto: filter.Proto(packet.ProtoUDP), DstPorts: filter.Port(80),
			Action: filter.ActDrop,
		}); err != nil {
			t.Fatal(err)
		}
		load, err := d.reloadPrograms()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if load <= 0 {
			t.Fatalf("%s: deploy must cost control-plane time", name)
		}
		if d.w.NIC.Machine(nic.Egress) == nil {
			t.Fatalf("%s: egress program missing", name)
		}
		if d.w.NIC.Machine(nic.Ingress) != nil {
			t.Fatalf("%s: empty ACCEPT ingress chain must not load a program", name)
		}

		d.fw.Flush(filter.HookOutput)
		if _, err := d.reloadPrograms(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.w.NIC.Machine(nic.Egress) != nil {
			t.Fatalf("%s: flushed chain must unload", name)
		}
	}
}

func TestDeployChainsOwnerRulesNeedProcessView(t *testing.T) {
	// Without a process view there is no interner, so a cmd-owner rule
	// cannot compile. (The filter.Engine guard normally rejects the rule
	// first; this checks the compiler's own defense in depth.)
	for name, d := range directArchs() {
		d.fw = filter.NewEngine(true) // bypass the front-door guard deliberately
		_ = d.fw.Append(filter.HookOutput, &filter.Rule{OwnerCmd: "postgres", Action: filter.ActDrop})
		_, err := d.reloadPrograms()
		if d.trusted != (err == nil) {
			t.Fatalf("%s: process view %v, cmd-owner compile err %v", name, d.trusted, err)
		}
		if d.trusted != (d.internCmd() != nil) {
			t.Fatalf("%s: an interner exactly with a process view", name)
		}
	}
}

func TestRuleHitsCountMatches(t *testing.T) {
	for name, d := range directArchs() {
		_ = d.fw.Append(filter.HookInput, &filter.Rule{
			Proto: filter.Proto(packet.ProtoUDP), DstPorts: filter.Port(53),
			Action: filter.ActDrop,
		})
		if _, err := d.reloadPrograms(); err != nil {
			t.Fatal(err)
		}
		m := d.w.NIC.Machine(nic.Ingress)
		for i := 0; i < 3; i++ {
			m.Run(udpTo(53), overlay.NopEnv{})
		}
		m.Run(udpTo(54), overlay.NopEnv{})
		hits, ok := d.RuleHits(filter.HookInput, 0)
		if !ok || hits != 3 {
			t.Fatalf("%s: hits = %d ok=%v", name, hits, ok)
		}
		if _, ok := d.RuleHits(filter.HookInput, 5); ok {
			t.Fatalf("%s: out-of-range index", name)
		}
	}
}
