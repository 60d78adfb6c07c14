package kernel

import (
	"errors"
	"testing"

	"norman/internal/packet"
	"norman/internal/sim"
)

func newKernel() (*Kernel, *sim.Engine) {
	eng := sim.NewEngine()
	return New(eng), eng
}

func TestSpawnAndProcessTable(t *testing.T) {
	k, _ := newKernel()
	k.AddUser(1001, "bob")
	p1 := k.Spawn(1001, "postgres")
	p2 := k.Spawn(1001, "psql")
	if p1.PID == p2.PID {
		t.Fatal("pids must be unique")
	}
	got, ok := k.Process(p1.PID)
	if !ok || got.Command != "postgres" || got.UID != 1001 {
		t.Fatalf("lookup: %+v %v", got, ok)
	}
	if len(k.Processes()) != 2 {
		t.Fatalf("process count %d", len(k.Processes()))
	}
	if u, ok := k.User(1001); !ok || u.Name != "bob" {
		t.Fatal("user lookup")
	}
}

func TestConnRegistryAndPortConflict(t *testing.T) {
	k, _ := newKernel()
	p := k.Spawn(1001, "app")
	flow := packet.FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 2000, Proto: packet.ProtoUDP}
	ci, err := k.RegisterConn(p, flow)
	if err != nil {
		t.Fatal(err)
	}
	if ci.PID != p.PID || ci.Command != "app" {
		t.Fatalf("attribution: %+v", ci)
	}
	if _, err := k.RegisterConn(p, flow); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("duplicate flow: %v", err)
	}
	if got, ok := k.ConnByFlow(flow); !ok || got.ID != ci.ID {
		t.Fatal("flow lookup")
	}
	if err := k.UnregisterConn(ci.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RegisterConn(p, flow); err != nil {
		t.Fatalf("flow should be reusable after unregister: %v", err)
	}
	if err := k.UnregisterConn(999); !errors.Is(err, ErrNoSuchConn) {
		t.Fatalf("unknown conn: %v", err)
	}
}

func TestMetaIsTrustedAndComplete(t *testing.T) {
	k, _ := newKernel()
	p := k.Spawn(1002, "backup")
	ci, _ := k.RegisterConn(p, packet.FlowKey{SrcPort: 1})
	m := k.Meta(ci)
	if !m.TrustedMeta || m.UID != 1002 || m.PID != p.PID || m.Command != "backup" {
		t.Fatalf("meta: %+v", m)
	}
	if m.CommandID == 0 {
		t.Fatal("command id must be interned")
	}
	if m.CommandID != k.CommandID("backup") {
		t.Fatal("interning must be stable")
	}
	if k.CommandID("backup") == k.CommandID("other") {
		t.Fatal("distinct commands get distinct ids")
	}
}

func TestARPCacheLearnAndAttribution(t *testing.T) {
	a := NewARPCache()
	mac := packet.MAC{1, 2, 3, 4, 5, 6}
	reply := packet.NewARPReply(mac, packet.MakeIP(10, 0, 0, 2), packet.MAC{9}, packet.MakeIP(10, 0, 0, 1))
	a.Observe(reply, 5, false)
	got, ok := a.Lookup(packet.MakeIP(10, 0, 0, 2))
	if !ok || got != mac {
		t.Fatal("reply should teach the cache")
	}

	req := packet.NewARPRequest(packet.MAC{7}, packet.MakeIP(10, 0, 0, 1), packet.MakeIP(10, 0, 0, 9))
	req.Meta.TrustedMeta = true
	req.Meta.PID = 42
	for i := 0; i < 3; i++ {
		a.Observe(req, sim.Time(i), true)
	}
	other := packet.NewARPRequest(packet.MAC{8}, 1, 2) // unattributed
	a.Observe(other, 9, true)

	pid, n := a.TopRequester()
	if pid != 42 || n != 3 {
		t.Fatalf("top requester: pid=%d n=%d", pid, n)
	}
	if len(a.Entries()) != 1 {
		t.Fatalf("entries: %d", len(a.Entries()))
	}
	// Inbound requests are not counted as local senders.
	a.Observe(req, 10, false)
	if _, n := a.TopRequester(); n != 3 {
		t.Fatal("inbound observation must not count as outbound")
	}
}
