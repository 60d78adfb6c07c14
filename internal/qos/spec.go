package qos

import (
	"fmt"

	"norman/internal/packet"
)

// Spec is one egress scheduler configuration (`tc qdisc add`): the record the
// tools send, the control plane journals and every Qdisc reads back. Kind is
// "wfq", "drr", "prio", "pfifo" or "tbf"; Weights maps class id -> weight
// (wfq) or quantum bytes (drr); RateBps and BurstBytes parameterize tbf;
// Limit bounds the queue in packets, 0 meaning the kind's default;
// ClassOfUID maps uid -> class, and unmapped users get class 0.
type Spec struct {
	Kind       string             `json:"kind"`
	Weights    map[uint32]float64 `json:"weights,omitempty"`
	ClassOfUID map[uint32]uint32  `json:"class_of_uid,omitempty"`
	RateBps    float64            `json:"rate_bps,omitempty"`
	BurstBytes float64            `json:"burst_bytes,omitempty"`
	Limit      int                `json:"limit,omitempty"`
}

// Build makes the scheduler a spec names and the classifier that assigns
// classes by owning user id through ClassOfUID (untrusted metadata gets
// class 0). Each kind and each of its fields is read here and written back by
// its Spec method, and nowhere else: Build(s).Spec() is s in canonical form,
// its defaults resolved and its values as the scheduler holds them.
// ClassOfUID lives in the classifier, which the scheduler cannot read back,
// so Spec leaves it out.
func Build(s Spec) (Qdisc, func(*packet.Packet) uint32, error) {
	var q Qdisc
	switch s.Kind {
	case "wfq":
		wf := NewWFQ(s.Limit)
		for class, weight := range s.Weights {
			wf.SetWeight(class, weight)
		}
		q = wf
	case "drr":
		d := NewDRR(s.Limit, 1514)
		for class, weight := range s.Weights {
			d.SetQuantum(class, int(weight))
		}
		q = d
	case "prio":
		q = NewPrio(3, s.Limit)
	case "pfifo":
		q = NewPFIFO(s.Limit)
	case "tbf":
		q = NewTBF(s.Limit, s.RateBps, s.BurstBytes)
	default:
		return nil, nil, fmt.Errorf("qos: unknown qdisc %q", s.Kind)
	}
	return q, func(p *packet.Packet) uint32 {
		if !p.Meta.TrustedMeta {
			return 0
		}
		return s.ClassOfUID[p.Meta.UID]
	}, nil
}
