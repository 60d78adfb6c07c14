package transport

import (
	"errors"
	"testing"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/packet"
	"norman/internal/sim"
)

// TestTerminalPaths is the terminal-state table: a stream either completes
// (Done fires once, no error) or the path dies and it gives up (ErrAborted,
// via RTO give-up, OnAbort fires once). Either way it is terminal, and
// exactly one of the two callbacks ran.
func TestTerminalPaths(t *testing.T) {
	cases := []struct {
		name      string
		blackhole bool  // the peer swallows every segment
		wantErr   error // nil: the stream completes
	}{
		{name: "completed"},
		{name: "rto-give-up", blackhole: true, wantErr: ErrAborted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
			if tc.blackhole {
				w.Peer = func(*packet.Packet, sim.Time) {}
			}
			aborts, dones := 0, 0
			var abortErr error
			s := New(a, conn, flow, host.NewMux(a), Config{
				TotalBytes: 1 << 20,
				OnAbort:    func(err error, _ sim.Time) { aborts++; abortErr = err },
				Done:       func(sim.Time) { dones++ },
			})
			s.Start()
			w.Eng.RunUntil(sim.Time(10 * sim.Second))

			if !s.Terminal() || s.Aborted() != (tc.wantErr != nil) || s.Done() != (tc.wantErr == nil) {
				t.Fatalf("terminal = %v, done = %v, aborted = %v", s.Terminal(), s.Done(), s.Aborted())
			}
			if aborts+dones != 1 || (aborts == 1) != (tc.wantErr != nil) {
				t.Fatalf("OnAbort fired %d times and Done %d, want exactly one of them", aborts, dones)
			}
			if !errors.Is(abortErr, tc.wantErr) || !errors.Is(s.Err(), tc.wantErr) {
				t.Fatalf("terminal error = %v / %v, want %v", abortErr, s.Err(), tc.wantErr)
			}
			if s.Stats.Aborted != (tc.wantErr != nil) {
				t.Fatalf("stats must record an abort, and only an abort: %+v", s.Stats)
			}
		})
	}
}
