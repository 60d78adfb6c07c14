package qos

import "norman/internal/telemetry"

// RegisterMetrics exposes the aggregate counters and instantaneous queue
// depth of whatever qdisc q returns at render time, so a scheduler swapped
// after registration is the one reported. With no qdisc every series reads
// zero, and so do the counters of a qdisc that keeps no aggregate Stats
// (Prio, whose bands keep their own).
func RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels, q func() Qdisc) {
	counter := func(name, help, unit string, pick func(Stats) uint64) {
		r.Counter(telemetry.Desc{Layer: "qos", Name: name, Help: help, Unit: unit},
			labels, func() uint64 {
				if s, ok := q().(interface{ Stats() Stats }); ok {
					return pick(s.Stats())
				}
				return 0
			})
	}
	counter("enq_packets", "packets accepted by the scheduler", "packets", func(s Stats) uint64 { return s.EnqPackets })
	counter("enq_bytes", "bytes accepted by the scheduler", "bytes", func(s Stats) uint64 { return s.EnqBytes })
	counter("deq_packets", "packets released toward the wire", "packets", func(s Stats) uint64 { return s.DeqPackets })
	counter("deq_bytes", "bytes released toward the wire", "bytes", func(s Stats) uint64 { return s.DeqBytes })
	counter("drop_packets", "packets dropped at enqueue (queue full, or larger than a tbf burst)", "packets", func(s Stats) uint64 { return s.DropPackets })
	r.Gauge(telemetry.Desc{Layer: "qos", Name: "queue_depth", Help: "packets currently queued in the scheduler", Unit: "packets"},
		labels, func() float64 {
			if cur := q(); cur != nil {
				return float64(cur.Len())
			}
			return 0
		})
}
