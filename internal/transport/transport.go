// Package transport is the Norman library's reliable byte-stream transport:
// sliding-window delivery with cumulative ACKs, RTT-adaptive retransmission
// (Jacobson/Karels), fast retransmit on triple duplicate ACKs, and NewReno-
// style AIMD congestion control.
//
// The paper's architecture (§4.2) puts exactly this logic in the *library*:
// congestion control and reliability are dataplane functionality that needs
// no privileged interposition, so under KOPI they run in the application's
// address space over its own rings — while the on-NIC interposition layer
// still sees (and can police) every segment.
package transport

import (
	"errors"
	"fmt"

	"norman/internal/arch"
	"norman/internal/host"
	"norman/internal/packet"
	"norman/internal/sim"
)

// MSS is the maximum segment payload.
const MSS = 1400

// initialRTO is a stream's first retransmission timeout, before any RTT
// sample; backoff doubles it up to maxRTO.
const initialRTO = 10 * sim.Millisecond

// maxRTO caps the retransmission timeout's exponential backoff.
const maxRTO = 500 * sim.Millisecond

// maxRetries is how many consecutive RTO expiries on the same
// unacknowledged byte a stream tolerates before aborting. With the default
// RTO schedule (10 ms initial, doubling, 500 ms cap) a total blackhole
// aborts in under ~4 s of virtual time — bounded, never a livelock.
const maxRetries = 12

// ErrAborted is the terminal error of a stream that gave up (retransmission
// budget exhausted) rather than completing.
var ErrAborted = errors.New("transport: stream aborted")

// Config parameterizes a stream.
type Config struct {
	TotalBytes uint32 // how much to transfer
	Window     uint32 // receiver window in bytes (0 = 256 KiB)
	Done       func(at sim.Time)

	// OnAbort fires exactly once when the stream gives up; Done never fires
	// for an aborted stream.
	OnAbort func(err error, at sim.Time)
}

// Stats tracks a stream's behavior for tests and benches.
type Stats struct {
	SegmentsSent    uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	AckedBytes      uint64
	Started         sim.Time
	Finished        sim.Time
	// CwndMax is the peak congestion window observed, in bytes.
	CwndMax float64
	// Aborted records that the stream gave up (maxRetries consecutive RTOs)
	// instead of completing; Finished then holds the abort time.
	Aborted bool
}

// Goodput returns achieved application throughput in Gbit/s.
func (s Stats) Goodput() float64 {
	if s.Finished <= s.Started {
		return 0
	}
	return float64(s.AckedBytes) * 8 / s.Finished.Sub(s.Started).Seconds() / 1e9
}

// Stream is the sending side of a reliable transfer over one connection.
type Stream struct {
	a    arch.Arch
	conn *arch.Conn
	flow packet.FlowKey
	cfg  Config

	sndUna       uint32 // oldest unacknowledged byte
	sndNxt       uint32 // next byte to send
	cwnd         float64
	ssthresh     float64
	dupAcks      int
	recovering   bool // in fast recovery until recoverPoint is acked
	recoverPoint uint32

	srtt, rttvar sim.Duration
	rto          sim.Duration
	rttSeq       uint32   // segment whose RTT is being timed
	rttSentAt    sim.Time // when it was sent
	rttValid     bool

	rtoTimer sim.Timer // the one RTO, pushed back by every advancing ACK; fires rtoExpiry
	done     bool

	// Give-up tracking: consecutive RTO expiries pinned on the same sndUna.
	rtoStreak int
	rtoUna    uint32
	aborted   bool
	err       error

	Stats Stats
}

// New creates a stream sending cfg.TotalBytes over conn, registering its ACK
// handler on the mux — that is, on conn itself, so a closed connection takes
// the stream with it. Call Start to begin.
func New(a arch.Arch, conn *arch.Conn, flow packet.FlowKey, mux *host.Mux, cfg Config) *Stream {
	if cfg.Window == 0 {
		cfg.Window = 256 << 10
	}
	s := &Stream{
		a: a, conn: conn, flow: flow, cfg: cfg,
		cwnd:     4 * MSS, // RFC 6928-style initial window (scaled down)
		ssthresh: float64(cfg.Window),
		rto:      initialRTO,
	}
	s.rtoTimer.Init(a.World().Eng, (*rtoExpiry)(s))
	mux.Handle(conn, s.onAck)
	return s
}

// rtoExpiry is the stream as its RTO timer's handler: the stream record is
// the timer's callback, so arming one allocates nothing of its own.
type rtoExpiry Stream

// Fire implements sim.Handler.
func (x *rtoExpiry) Fire() { (*Stream)(x).onTimeout() }

// Start begins the transfer at the current virtual time.
func (s *Stream) Start() {
	s.Stats.Started = s.now()
	s.trySend()
}

// Done reports whether the whole transfer has been acknowledged.
func (s *Stream) Done() bool { return s.done }

// Aborted reports whether the stream gave up without completing.
func (s *Stream) Aborted() bool { return s.aborted }

// Terminal reports whether the stream has reached a terminal state: either
// completed (Done) or aborted (Err non-nil). A terminal stream sends nothing
// and runs no further callback — the no-livelock guarantee E9 measures — and
// its stopped RTO timer's queued events are dead, purged by the engine. The
// engine's drained clock still reaches the furthest deadline the timer was
// ever armed for (sim.Engine's horizon: up to initialRTO after Start for a
// transfer shorter than that); it is model-visible, so
// TestStreamTimerDrainedClock pins it.
func (s *Stream) Terminal() bool { return s.done || s.aborted }

// Err returns the terminal error of an aborted stream (wrapping ErrAborted),
// or nil while in flight or after success.
func (s *Stream) Err() error { return s.err }

// abort ends the stream with err: cancel the RTO timer, record stats, and
// fire the error callback — exactly once, whatever path got here.
func (s *Stream) abort(err error) {
	if s.done || s.aborted {
		return
	}
	s.aborted = true
	s.err = err
	s.rtoTimer.Stop()
	s.Stats.Aborted = true
	s.Stats.Finished = s.now()
	if s.cfg.OnAbort != nil {
		s.cfg.OnAbort(err, s.Stats.Finished)
	}
}

func (s *Stream) now() sim.Time { return s.a.World().Eng.Now() }

// segment builds the TCP data segment starting at seq, from the world's free
// list: the wire peer's return ends its journey.
func (s *Stream) segment(seq uint32) *packet.Packet {
	n := uint32(MSS)
	if rem := s.cfg.TotalBytes - seq; rem < n {
		n = rem
	}
	w := s.a.World()
	p := w.Frames.TCP(w.HostMAC, w.PeerMAC, s.flow.Src, s.flow.Dst,
		s.flow.SrcPort, s.flow.DstPort, packet.TCPPsh, int(n))
	p.TCP.Seq = seq
	return p
}

// inFlightLimit is the current send window in bytes.
func (s *Stream) inFlightLimit() uint32 {
	win := uint32(s.cwnd)
	if win > s.cfg.Window {
		win = s.cfg.Window
	}
	if win < MSS {
		win = MSS
	}
	return win
}

// trySend transmits as much new data as the window allows.
func (s *Stream) trySend() {
	if s.done || s.aborted {
		return
	}
	for s.sndNxt < s.cfg.TotalBytes && s.sndNxt-s.sndUna < s.inFlightLimit() {
		seg := s.segment(s.sndNxt)
		if !s.rttValid {
			s.rttSeq = s.sndNxt
			s.rttSentAt = s.now()
			s.rttValid = true
		}
		s.sndNxt += uint32(seg.PayloadLen)
		s.Stats.SegmentsSent++
		s.a.Send(s.conn, seg)
	}
	if s.cwnd > s.Stats.CwndMax {
		s.Stats.CwndMax = s.cwnd
	}
	s.armTimer()
}

// retransmit resends the oldest unacknowledged segment.
func (s *Stream) retransmit() {
	seg := s.segment(s.sndUna)
	s.Stats.SegmentsSent++
	s.Stats.Retransmits++
	s.rttValid = false // Karn: never time retransmitted segments
	s.a.Send(s.conn, seg)
	s.armTimer()
}

// armTimer schedules (or reschedules) the RTO for the current window.
func (s *Stream) armTimer() {
	if s.done || s.aborted || s.sndUna >= s.cfg.TotalBytes {
		return
	}
	s.rtoTimer.Reset(s.now().Add(s.rto))
}

func (s *Stream) onTimeout() {
	if s.sndUna >= s.cfg.TotalBytes {
		return
	}
	s.Stats.Timeouts++

	// Give-up path: consecutive expiries with no forward progress mean the
	// path (or the peer) is gone; retransmitting forever would livelock the
	// stream and pin its timer events in the engine for good.
	if s.sndUna == s.rtoUna {
		s.rtoStreak++
	} else {
		s.rtoUna = s.sndUna
		s.rtoStreak = 1
	}
	if s.rtoStreak > maxRetries {
		s.abort(fmt.Errorf("%w: %d consecutive RTOs at seq %d", ErrAborted, s.rtoStreak-1, s.sndUna))
		return
	}
	s.ssthresh = maxf(s.cwnd/2, 2*MSS)
	s.cwnd = MSS
	s.recovering = false
	s.dupAcks = 0
	s.rto *= 2
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
	// Go-back-N from the timeout point: resend the first hole only; the
	// cumulative ACK will pull the rest.
	s.sndNxt = maxu(s.sndUna+MSS, s.sndUna) // allow window to refill gradually
	if s.sndNxt > s.cfg.TotalBytes {
		s.sndNxt = s.cfg.TotalBytes
	}
	s.retransmit()
}

// onAck processes a cumulative acknowledgment from the responder.
func (s *Stream) onAck(_ *arch.Conn, p *packet.Packet, at sim.Time) {
	if p.TCP == nil || p.TCP.Flags&packet.TCPAck == 0 || s.done || s.aborted {
		return
	}
	ack := p.TCP.Ack
	switch {
	case ack > s.sndUna:
		acked := ack - s.sndUna
		s.Stats.AckedBytes += uint64(acked)
		s.sndUna = ack
		s.dupAcks = 0
		s.rtoStreak = 0 // forward progress resets the give-up budget

		// RTT sample (Karn-compliant: only for never-retransmitted probes).
		if s.rttValid && ack > s.rttSeq {
			s.updateRTT(at.Sub(s.rttSentAt))
			s.rttValid = false
		}

		if s.recovering {
			if ack >= s.recoverPoint {
				s.recovering = false
				s.cwnd = s.ssthresh
			}
		} else if s.cwnd < s.ssthresh {
			s.cwnd += float64(acked) // slow start
		} else {
			s.cwnd += MSS * float64(acked) / s.cwnd // congestion avoidance
		}

		if s.sndNxt < s.sndUna {
			s.sndNxt = s.sndUna
		}
		if s.sndUna >= s.cfg.TotalBytes {
			s.done = true
			s.rtoTimer.Stop()
			s.Stats.Finished = at
			if s.cfg.Done != nil {
				s.cfg.Done(at)
			}
			return
		}
		// trySend ends by re-arming the RTO for the advanced window (the
		// stream is neither done nor aborted here). Arming before it as well
		// would be unobservable: only the last Reset before a fire counts,
		// both land on now+rto, and the sequence number the extra arm
		// reserved shifts every later event's uniformly without reordering
		// any two.
		s.trySend()

	case ack == s.sndUna:
		s.dupAcks++
		if s.dupAcks == 3 && !s.recovering {
			// Fast retransmit + NewReno-style recovery.
			s.Stats.FastRetransmits++
			s.ssthresh = maxf(s.cwnd/2, 2*MSS)
			s.cwnd = s.ssthresh + 3*MSS
			s.recovering = true
			s.recoverPoint = s.sndNxt
			s.retransmit()
		} else if s.recovering {
			s.cwnd += MSS // inflate per additional dupack
			s.trySend()
		}
	}
}

// updateRTT runs the Jacobson/Karels estimator.
func (s *Stream) updateRTT(sample sim.Duration) {
	if sample <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < sim.Millisecond {
		s.rto = sim.Millisecond
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

// SRTT exposes the smoothed RTT estimate.
func (s *Stream) SRTT() sim.Duration { return s.srtt }

func (s *Stream) String() string {
	return fmt.Sprintf("stream[una=%d nxt=%d cwnd=%.0f rto=%v]", s.sndUna, s.sndNxt, s.cwnd, s.rto)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxu(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
