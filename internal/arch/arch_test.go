package arch

import (
	"errors"
	"testing"

	"norman/internal/filter"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/sniff"
)

// TestCapsMatchBehavior cross-checks the declared capability flags against
// actual API behavior for every architecture — a Caps lie would silently
// corrupt the E2 matrix.
func TestCapsMatchBehavior(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a := New(name, WorldConfig{})
			w := a.World()
			w.Peer = func(*packet.Packet, sim.Time) {}
			caps := a.Caps()

			u := w.Kern.AddUser(7, "u")
			proc := w.Kern.Spawn(u.UID, "p")
			c, err := a.Connect(proc, w.Flow(1000, 7))
			if err != nil {
				t.Fatal(err)
			}

			ownerErr := a.InstallRule(filter.HookOutput, &filter.Rule{
				OwnerUID: filter.UID(7), Action: filter.ActDrop,
			})
			if caps.OwnerFiltering != (ownerErr == nil) {
				t.Errorf("OwnerFiltering=%v but install err=%v", caps.OwnerFiltering, ownerErr)
			}

			_, tapErr := a.AttachTap(udpFilter(t))
			if caps.GlobalCapture != (tapErr == nil) {
				t.Errorf("GlobalCapture=%v but tap err=%v", caps.GlobalCapture, tapErr)
			}

			blockErr := a.SetRxMode(c, RxBlock)
			if caps.BlockingIO != (blockErr == nil) {
				t.Errorf("BlockingIO=%v but block err=%v", caps.BlockingIO, blockErr)
			}
		})
	}
}

// TestCloseReleasesResources verifies connections can close and their flows
// be reused on every architecture.
func TestCloseReleasesResources(t *testing.T) {
	for _, name := range Names() {
		a := New(name, WorldConfig{})
		w := a.World()
		w.Peer = func(*packet.Packet, sim.Time) {}
		u := w.Kern.AddUser(1, "u")
		proc := w.Kern.Spawn(u.UID, "p")
		flow := w.Flow(2000, 7)
		c, err := a.Connect(proc, flow)
		if err != nil {
			t.Fatalf("%s: connect: %v", name, err)
		}
		if err := a.Close(c); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if _, err := a.Connect(proc, flow); err != nil {
			t.Fatalf("%s: reconnect after close: %v", name, err)
		}
	}
}

// TestEgressFilterDropsOnEveryInterposingArch installs a plain 5-tuple drop
// and checks it actually stops wire traffic wherever installation succeeds.
func TestEgressFilterDropsOnEveryInterposingArch(t *testing.T) {
	for _, name := range Names() {
		a := New(name, WorldConfig{})
		w := a.World()
		var out int
		w.Peer = func(*packet.Packet, sim.Time) { out++ }
		u := w.Kern.AddUser(1, "u")
		proc := w.Kern.Spawn(u.UID, "p")
		flow := w.Flow(3000, 4444)
		c, err := a.Connect(proc, flow)
		if err != nil {
			t.Fatal(err)
		}
		err = a.InstallRule(filter.HookOutput, &filter.Rule{
			Proto: filter.Proto(packet.ProtoUDP), DstPorts: filter.Port(4444),
			Action: filter.ActDrop,
		})
		if errors.Is(err, ErrUnsupported) {
			continue // bypass: nothing to check
		}
		if err != nil {
			t.Fatalf("%s: install: %v", name, err)
		}
		a.Send(c, w.UDPTo(flow, 100))
		w.Eng.Run()
		if out != 0 {
			t.Errorf("%s: filtered packet escaped to the wire", name)
		}
	}
}

// TestSendBatchDeliversAll exercises the batched TX path end to end.
func TestSendBatchDeliversAll(t *testing.T) {
	for _, name := range Names() {
		a := New(name, WorldConfig{})
		w := a.World()
		var out int
		w.Peer = func(*packet.Packet, sim.Time) { out++ }
		u := w.Kern.AddUser(1, "u")
		proc := w.Kern.Spawn(u.UID, "p")
		flow := w.Flow(3000, 9)
		c, err := a.Connect(proc, flow)
		if err != nil {
			t.Fatal(err)
		}
		pkts := make([]*packet.Packet, 20)
		for i := range pkts {
			pkts[i] = w.UDPTo(flow, 64)
		}
		a.SendBatch(c, pkts)
		w.Eng.Run()
		if out != 20 {
			t.Errorf("%s: batch delivered %d/20", name, out)
		}
	}
}

// TestTrustedMetadataOnlyWhereKernelProgramsIt: the same raw packet carries
// attribution on KOPI but not on the hypervisor — the crux of §3.
func TestTrustedMetadataOnlyWhereKernelProgramsIt(t *testing.T) {
	check := func(name string, wantTrusted bool) {
		a := New(name, WorldConfig{})
		w := a.World()
		var meta packet.Meta
		w.Peer = func(p *packet.Packet, _ sim.Time) { meta = p.Meta }
		u := w.Kern.AddUser(42, "u")
		proc := w.Kern.Spawn(u.UID, "cmd")
		flow := w.Flow(1000, 7)
		c, _ := a.Connect(proc, flow)
		a.Send(c, w.UDPTo(flow, 64))
		w.Eng.Run()
		if meta.TrustedMeta != wantTrusted {
			t.Errorf("%s: trusted=%v want %v", name, meta.TrustedMeta, wantTrusted)
		}
		if wantTrusted && (meta.UID != 42 || meta.Command != "cmd") {
			t.Errorf("%s: meta %+v", name, meta)
		}
	}
	check("kopi", true)
	check("kernelstack", true)
	check("sidecar", true)
	check("hypervisor", false)
	check("bypass", false)
}

// TestWorldCPUAccounting: poll-pinned cores count as fully busy.
func TestWorldCPUAccounting(t *testing.T) {
	w := NewWorld(WorldConfig{})
	core := w.Core(1)
	core.Acquire(0, sim.Duration(10*sim.Microsecond))
	now := sim.Time(100 * sim.Microsecond)
	if got := w.CPUBusy(now); got != 10*sim.Microsecond {
		t.Fatalf("busy = %v", got)
	}
	w.MarkPoller(core)
	if got := w.CPUBusy(now); got != 100*sim.Microsecond {
		t.Fatalf("poll-pinned busy = %v", got)
	}
	w.UnmarkPoller(core)
	if got := w.CPUBusy(now); got != 10*sim.Microsecond {
		t.Fatalf("unmarked busy = %v", got)
	}
}

// udpFilter is the capture expression the tap tests attach.
func udpFilter(t *testing.T) *sniff.Expr {
	t.Helper()
	e, err := sniff.Parse("udp")
	if err != nil {
		t.Fatal(err)
	}
	return e
}
