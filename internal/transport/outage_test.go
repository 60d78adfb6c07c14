package transport

import (
	"errors"
	"testing"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/packet"
	"norman/internal/sim"
)

// TestTransferSurvivesBitstreamOutage is the E4/transport integration: a
// bitstream respin (§4.4's "equivalent to upgrading the kernel") blacks out
// the dataplane mid-transfer; the library transport's retransmission
// machinery rides it out and the transfer still completes, bit-complete.
func TestTransferSurvivesBitstreamOutage(t *testing.T) {
	a := arch.New("kopi", arch.WorldConfig{})
	w := a.World()

	resp := NewResponder(a, 5001, 7)
	w.Peer = resp.Recv

	u := w.Kern.AddUser(1, "u")
	proc := w.Kern.Spawn(u.UID, "sender")
	flow := packet.FlowKey{Src: w.HostIP, Dst: w.PeerIP, SrcPort: 4001, DstPort: 5001, Proto: packet.ProtoTCP}
	conn, err := a.Connect(proc, flow)
	if err != nil {
		t.Fatal(err)
	}
	mux := host.NewMux(a)

	const total = 1 << 20
	s := New(a, conn, flow, mux, Config{TotalBytes: total})
	s.Start()

	// Mid-transfer, yank the dataplane for 3 ms.
	w.Eng.At(sim.Time(200*sim.Microsecond), func() {
		w.NIC.ReloadBitstream(w.Eng.Now(), 3*sim.Millisecond)
	})

	w.Eng.RunUntil(sim.Time(10 * sim.Second))

	if !s.Done() {
		t.Fatalf("transfer did not survive the outage: %v (stats %+v)", s, s.Stats)
	}
	if resp.Received != total {
		t.Fatalf("responder got %d/%d in-order bytes", resp.Received, total)
	}
	if s.Stats.Timeouts == 0 {
		t.Fatal("the outage must have forced RTO recovery")
	}
	if w.NIC.RxOutageDrop == 0 && w.NIC.TxOutageDrop == 0 {
		t.Fatal("the outage should have eaten traffic")
	}
	// The blackout plus recovery dominates the completion time.
	if s.Stats.Finished < sim.Time(3*sim.Millisecond) {
		t.Fatalf("finished at %v, before the outage even ended", s.Stats.Finished)
	}
}

// TestTotalBlackholeAbortsBounded pins the no-livelock guarantee: with every
// frame eaten by the wire (nothing ever reaches the peer), the stream
// exhausts its retransmission budget and aborts — exactly one error
// callback, terminal state, and a completion time bounded by the RTO
// schedule (~4.1 s with the defaults), not an infinite retransmit loop.
func TestTotalBlackholeAbortsBounded(t *testing.T) {
	a := arch.New("kopi", arch.WorldConfig{})
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {} // sink: a total blackhole

	u := w.Kern.AddUser(1, "u")
	proc := w.Kern.Spawn(u.UID, "sender")
	flow := packet.FlowKey{Src: w.HostIP, Dst: w.PeerIP, SrcPort: 4001, DstPort: 5001, Proto: packet.ProtoTCP}
	conn, err := a.Connect(proc, flow)
	if err != nil {
		t.Fatal(err)
	}
	mux := host.NewMux(a)

	aborts := 0
	var abortErr error
	s := New(a, conn, flow, mux, Config{
		TotalBytes: 1 << 20,
		OnAbort:    func(err error, _ sim.Time) { aborts++; abortErr = err },
		Done:       func(sim.Time) { t.Error("Done must not fire for an aborted stream") },
	})
	s.Start()
	// Run to quiescence: if the abort failed to cancel the RTO timer this
	// would never return (the livelock this test exists to rule out).
	w.Eng.Run()

	if !s.Aborted() || s.Done() {
		t.Fatalf("blackhole stream must abort: done=%v aborted=%v stats=%+v",
			s.Done(), s.Aborted(), s.Stats)
	}
	if !s.Terminal() {
		t.Fatal("aborted stream must be terminal")
	}
	if aborts != 1 {
		t.Fatalf("OnAbort fired %d times", aborts)
	}
	if !errors.Is(abortErr, ErrAborted) || !errors.Is(s.Err(), ErrAborted) {
		t.Fatalf("abort error = %v / %v", abortErr, s.Err())
	}
	if !s.Stats.Aborted {
		t.Fatalf("stats must record the abort: %+v", s.Stats)
	}
	// Bounded: sum of the doubling RTO schedule, well under 5 s — and the
	// engine must go quiet right after (no lingering retransmit events).
	if s.Stats.Finished > sim.Time(5*sim.Second) {
		t.Fatalf("abort at %v, beyond the RTO schedule bound", s.Stats.Finished)
	}
	// The budget allows maxRetries retransmissions; the expiry after the
	// last one is the abort itself.
	if int(s.Stats.Timeouts) != maxRetries+1 {
		t.Fatalf("timeouts = %d, want budget+abort %d", s.Stats.Timeouts, maxRetries+1)
	}
	if idle := w.Eng.Now(); idle > sim.Time(6*sim.Second) {
		t.Fatalf("events kept firing after the abort: engine went quiet at %v", idle)
	}
}

// TestHeavyLossCompletesBounded: at 50% data loss the stream must still make
// forward progress (acks reset the give-up budget) and finish — degraded,
// retransmitting hard, but neither aborted nor livelocked.
func TestHeavyLossCompletesBounded(t *testing.T) {
	const total = 64 << 10
	s, resp := run(t, total, 0.5, 0)
	if s.Aborted() {
		t.Fatalf("50%% loss must not abort a progressing stream: %v (stats %+v)", s.Err(), s.Stats)
	}
	if !s.Done() {
		t.Fatalf("transfer incomplete under 50%% loss: %+v", s.Stats)
	}
	if resp.Received != total {
		t.Fatalf("responder got %d/%d", resp.Received, total)
	}
	if s.Stats.Retransmits == 0 || resp.DataDrops == 0 {
		t.Fatalf("loss model never exercised: %+v drops=%d", s.Stats, resp.DataDrops)
	}
	if s.Stats.Finished > sim.Time(5*sim.Second) {
		t.Fatalf("completion at %v, outside the run window", s.Stats.Finished)
	}
}
