package transport

import "norman/internal/telemetry"

// RegisterStreamMetrics exposes the aggregate behavior of a set of streams on
// a registry. The getter is called at render time, so streams created after
// registration are included as long as the caller's slice is reachable
// through it.
func RegisterStreamMetrics(r *telemetry.Registry, labels telemetry.Labels, streams func() []*Stream) {
	sum := func(pick func(*Stats) uint64) func() uint64 {
		return func() uint64 {
			var total uint64
			for _, s := range streams() {
				total += pick(&s.Stats)
			}
			return total
		}
	}
	r.Counter(telemetry.Desc{Layer: "transport", Name: "segments_sent", Help: "data segments handed to the dataplane (including retransmissions)", Unit: "segments"},
		labels, sum(func(s *Stats) uint64 { return s.SegmentsSent }))
	r.Counter(telemetry.Desc{Layer: "transport", Name: "retransmits", Help: "segments retransmitted for any reason", Unit: "segments"},
		labels, sum(func(s *Stats) uint64 { return s.Retransmits }))
	r.Counter(telemetry.Desc{Layer: "transport", Name: "fast_retransmits", Help: "retransmissions triggered by triple duplicate ACKs", Unit: "segments"},
		labels, sum(func(s *Stats) uint64 { return s.FastRetransmits }))
	r.Counter(telemetry.Desc{Layer: "transport", Name: "timeouts", Help: "RTO expiries", Unit: "timeouts"},
		labels, sum(func(s *Stats) uint64 { return s.Timeouts }))
	r.Counter(telemetry.Desc{Layer: "transport", Name: "acked_bytes", Help: "application bytes cumulatively acknowledged", Unit: "bytes"},
		labels, sum(func(s *Stats) uint64 { return s.AckedBytes }))
	r.Gauge(telemetry.Desc{Layer: "transport", Name: "streams_aborted", Help: "streams that gave up (retransmission budget exhausted) instead of completing", Unit: "streams"},
		labels, func() float64 {
			var n float64
			for _, s := range streams() {
				if s.Aborted() {
					n++
				}
			}
			return n
		})
	r.Gauge(telemetry.Desc{Layer: "transport", Name: "streams", Help: "streams registered under these labels", Unit: "streams"},
		labels, func() float64 { return float64(len(streams())) })
}

// RegisterResponderMetrics exposes the peer endpoint's counters on a
// registry.
func (r *Responder) RegisterResponderMetrics(reg *telemetry.Registry, labels telemetry.Labels) {
	reg.Counter(telemetry.Desc{Layer: "transport", Name: "peer_received_bytes", Help: "in-order bytes delivered at the peer", Unit: "bytes"},
		labels, func() uint64 { return r.Received })
	reg.Counter(telemetry.Desc{Layer: "transport", Name: "peer_acks_sent", Help: "cumulative ACKs the peer returned", Unit: "acks"},
		labels, func() uint64 { return r.AcksSent })
	reg.Counter(telemetry.Desc{Layer: "transport", Name: "peer_data_drops", Help: "data segments dropped by the peer-side loss model", Unit: "segments"},
		labels, func() uint64 { return r.DataDrops })
	reg.Counter(telemetry.Desc{Layer: "transport", Name: "peer_ack_drops", Help: "ACKs dropped by the peer-side loss model", Unit: "acks"},
		labels, func() uint64 { return r.AckDrops })
}
