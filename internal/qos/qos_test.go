package qos

import (
	"testing"
	"testing/quick"

	"norman/internal/packet"
	"norman/internal/sim"
)

func pkt(class uint32, payload int) *packet.Packet {
	p := packet.NewUDP(packet.MAC{}, packet.MAC{}, 1, 2, 3, 4, payload)
	p.Meta.Class = class
	return p
}

func TestPFIFOOrderAndLimit(t *testing.T) {
	q := NewPFIFO(2)
	if !q.Enqueue(pkt(0, 1), 0) || !q.Enqueue(pkt(0, 2), 0) {
		t.Fatal("enqueue under limit must succeed")
	}
	if q.Enqueue(pkt(0, 3), 0) {
		t.Fatal("over limit must drop")
	}
	a, _ := q.Dequeue(0)
	b, _ := q.Dequeue(0)
	if a.PayloadLen != 1 || b.PayloadLen != 2 {
		t.Fatal("FIFO order violated")
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("empty dequeue")
	}
	if s := q.Stats(); s.DropPackets != 1 || s.EnqPackets != 2 || s.DeqPackets != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPrioStrictness(t *testing.T) {
	q := NewPrio(3, 10)
	q.Enqueue(pkt(2, 1), 0)
	q.Enqueue(pkt(0, 2), 0)
	q.Enqueue(pkt(1, 3), 0)
	order := []int{}
	for {
		p, ok := q.Dequeue(0)
		if !ok {
			break
		}
		order = append(order, int(p.Meta.Class))
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("priority order: %v", order)
	}
}

func TestPrioClassClamping(t *testing.T) {
	q := NewPrio(2, 10)
	q.Enqueue(pkt(9, 1), 0) // clamps to last band
	if p, ok := q.Dequeue(0); !ok || p.Meta.Class != 9 {
		t.Fatal("clamped class should still be served")
	}
}

func TestTBFRateLimiting(t *testing.T) {
	// 1 MB/s, burst exactly one 60B frame.
	q := NewTBF(100, 1e6, 1514)
	for i := 0; i < 50; i++ {
		q.Enqueue(pkt(0, 18), 0) // 60B frames
	}
	// At t=0 the bucket holds 1514 bytes: 25 frames of 60B fit.
	sent := 0
	for {
		if _, ok := q.Dequeue(0); !ok {
			break
		}
		sent++
	}
	if sent != 25 {
		t.Fatalf("burst allowed %d frames, want 25", sent)
	}
	// ReadyAt predicts when the next frame's tokens accrue: after 25
	// frames, 14 tokens remain, so 46 more bytes at 1MB/s = 46µs.
	at, ok := q.ReadyAt(0)
	if !ok {
		t.Fatal("queue is non-empty")
	}
	if d := sim.Duration(at); d != 46*sim.Microsecond {
		t.Fatalf("ReadyAt = %v, want 46µs", d)
	}
	if _, ok := q.Dequeue(at - 1); ok {
		t.Fatal("a frame left a picosecond before its tokens accrued")
	}
	if _, ok := q.Dequeue(at); !ok {
		t.Fatal("tokens should have accrued by the predicted time")
	}
}

func TestTBFLongRunRate(t *testing.T) {
	q := NewTBF(10000, 1e6, 1514) // 1 MB/s
	for i := 0; i < 5000; i++ {
		q.Enqueue(pkt(0, 940), 0) // 982B frames
	}
	var bytes, last uint64
	for tick := sim.Time(0); tick < sim.Time(sim.Second); tick += sim.Time(100 * sim.Microsecond) {
		for {
			p, ok := q.Dequeue(tick)
			if !ok {
				break
			}
			last = uint64(p.FrameLen())
			bytes += last
		}
	}
	// One simulated second at 1 MB/s: the burst plus a second's refill,
	// less the last tick's 100µs, to within one frame.
	want := uint64(1514 + 1e6 - 100)
	if bytes > want || bytes+last <= want {
		t.Fatalf("shaped to %d bytes in a second, want within one %dB frame of %d", bytes, last, want)
	}
}

// TestTBFRefusesWhatNeverFits: as in Linux's sch_tbf, a frame larger than
// the burst is refused at enqueue and counted as a drop, instead of waiting
// at the head for credit that never comes.
func TestTBFRefusesWhatNeverFits(t *testing.T) {
	q := NewTBF(10, 1e6, 1514)
	if q.Enqueue(pkt(0, 8958), 0) {
		t.Fatal("a 9000B frame was admitted under a 1514B burst")
	}
	if !q.Enqueue(pkt(0, 1472), 0) {
		t.Fatal("a 1514B frame fits a 1514B burst")
	}
	if s := q.Stats(); s.DropPackets != 1 || s.EnqPackets != 1 || q.Len() != 1 {
		t.Fatalf("stats %+v, len %d", s, q.Len())
	}
	if p, ok := q.Dequeue(0); !ok || p.FrameLen() != 1514 {
		t.Fatal("the fitting frame leaves on a full bucket")
	}
}

func TestWFQProportionalService(t *testing.T) {
	q := NewWFQ(4096)
	q.SetWeight(1, 5)
	q.SetWeight(2, 1)
	for i := 0; i < 600; i++ {
		q.Enqueue(pkt(1, 958), 0)
		q.Enqueue(pkt(2, 958), 0)
	}
	counts := map[uint32]int{}
	for i := 0; i < 600; i++ {
		p, ok := q.Dequeue(0)
		if !ok {
			break
		}
		counts[p.Meta.Class]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 4.5 || ratio > 5.5 {
		t.Fatalf("service ratio = %.2f (%v), want ≈5", ratio, counts)
	}
}

func TestWFQWorkConserving(t *testing.T) {
	q := NewWFQ(1024)
	q.SetWeight(1, 10)
	q.SetWeight(2, 1)
	// Only the light class has traffic: it gets full service.
	for i := 0; i < 10; i++ {
		q.Enqueue(pkt(2, 100), 0)
	}
	served := 0
	for {
		if _, ok := q.Dequeue(0); !ok {
			break
		}
		served++
	}
	if served != 10 {
		t.Fatalf("work conservation violated: %d/10", served)
	}
}

func TestWFQPerClassBufferBound(t *testing.T) {
	q := NewWFQ(100)
	q.SetWeight(1, 1)
	q.SetWeight(2, 1)
	for i := 0; i < 100; i++ {
		q.Enqueue(pkt(1, 10), 0)
	}
	// Two classes split the 100-frame buffer: class 1 holds its 50 and the
	// other 50 of its frames are dropped.
	if got := q.Stats().DropPackets; got != 50 {
		t.Fatalf("%d frames dropped, want 50: one class must not monopolize the buffer", got)
	}
	if !q.Enqueue(pkt(2, 10), 0) {
		t.Fatal("the other class must still have room")
	}
}

func TestDRRQuantumRatio(t *testing.T) {
	q := NewDRR(4096, 1000)
	q.SetQuantum(1, 3000)
	q.SetQuantum(2, 1000)
	for i := 0; i < 500; i++ {
		q.Enqueue(pkt(1, 958), 0)
		q.Enqueue(pkt(2, 958), 0)
	}
	counts := map[uint32]int{}
	for i := 0; i < 400; i++ {
		p, ok := q.Dequeue(0)
		if !ok {
			break
		}
		counts[p.Meta.Class]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("DRR ratio = %.2f (%v), want ≈3", ratio, counts)
	}
}

func TestPrioWithShapedBand(t *testing.T) {
	// Band 1 shaped to ~1 frame per 100µs; band 0 unshaped.
	q := NewPrioWith(
		NewPFIFO(100),
		NewTBF(100, 10e6, 1514),
	)
	q.Enqueue(pkt(1, 958), 0)
	q.Enqueue(pkt(1, 958), 0)
	if _, ok := q.Dequeue(0); !ok {
		t.Fatal("first shaped frame fits the burst")
	}
	// Second shaped frame must wait; ReadyAt reflects the deferral.
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("second frame should be deferred by the band shaper")
	}
	at, ok := q.ReadyAt(0)
	if !ok || at == 0 {
		t.Fatalf("ReadyAt should defer: %v %v", at, ok)
	}
	// Traffic in band 0 is ready immediately regardless.
	q.Enqueue(pkt(0, 100), 0)
	if at, ok := q.ReadyAt(0); !ok || at != 0 {
		t.Fatalf("unshaped band must be ready now: %v %v", at, ok)
	}
}

// Property: packets are conserved — everything enqueued is either still
// queued, dequeued, or was counted as a drop.
func TestConservationQuick(t *testing.T) {
	mk := func(kind int) Qdisc {
		switch kind % 4 {
		case 0:
			return NewPFIFO(32)
		case 1:
			return NewPrio(3, 16)
		case 2:
			wf := NewWFQ(32)
			wf.SetWeight(0, 2)
			wf.SetWeight(1, 1)
			return wf
		default:
			return NewDRR(32, 1514)
		}
	}
	f := func(kind int, ops []bool, classes []uint8) bool {
		q := mk(kind)
		enq, deq, drop := 0, 0, 0
		for i, push := range ops {
			if push {
				class := uint32(0)
				if i < len(classes) {
					class = uint32(classes[i] % 3)
				}
				if q.Enqueue(pkt(class, 64), 0) {
					enq++
				} else {
					drop++
				}
			} else if _, ok := q.Dequeue(0); ok {
				deq++
			}
		}
		return q.Len() == enq-deq && drop >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWFQHeapOrderAndAllocs checks the in-place finish-tag heap against its
// specification — pops come out in (finish, seq) order under interleaved
// pushes — and that a warm enqueue/dequeue cycle allocates nothing.
func TestWFQHeapOrderAndAllocs(t *testing.T) {
	var h wfqHeap
	rng := sim.NewRNG(1, "wfqheap")
	var seq uint64
	var last wfqItem
	for round := 0; round < 200; round++ {
		for i := rng.Intn(8); i >= 0; i-- {
			seq++
			// Never below the last finish served, as WFQ's virtual time guarantees.
			h.push(wfqItem{finish: last.finish + float64(rng.Intn(4)), seq: seq})
		}
		for i := rng.Intn(len(h) + 1); i > 0; i-- {
			it := h.pop()
			if it.less(&last) {
				t.Fatalf("round %d: popped (%v,%d) after (%v,%d)", round, it.finish, it.seq, last.finish, last.seq)
			}
			last = it
		}
	}
	q := NewWFQ(64)
	p := pkt(1, 1000)
	cycle := func() {
		for i := 0; i < 16; i++ {
			q.Enqueue(p, 0)
		}
		for i := 0; i < 16; i++ {
			q.Dequeue(0)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("WFQ enqueue/dequeue allocates %.2f per 16-frame cycle, want 0", allocs)
	}
}

// TestReadyAtContract holds every qdisc to the contract the pumps rely on:
// ReadyAt names an instant no earlier than now, nothing leaves a picosecond
// before it, and a Dequeue at it succeeds. Random enqueues of frames up to
// 9000B, random idle gaps, a fixed seed.
func TestReadyAtContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Qdisc
	}{
		{"pfifo", func() Qdisc { return NewPFIFO(64) }},
		{"prio", func() Qdisc { return NewPrio(3, 16) }},
		{"tbf", func() Qdisc { return NewTBF(64, 3e6, 9000) }},
		{"tbf_refusing", func() Qdisc { return NewTBF(64, 1e6, 1514) }},
		{"drr", func() Qdisc { return NewDRR(64, 1514) }},
		{"wfq", func() Qdisc {
			q := NewWFQ(64)
			q.SetWeight(1, 3)
			return q
		}},
		{"e6_prio_tbf", func() Qdisc { return NewPrioWith(NewPFIFO(512), NewTBF(512, sim.Gbps(1), 64<<10)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, rng := tc.mk(), sim.NewRNG(32, tc.name)
			var now sim.Time
			held := 0
			for step := 0; step < 4000; step++ {
				switch rng.Intn(4) {
				case 0, 1:
					if q.Enqueue(pkt(uint32(rng.Intn(3)), 1+rng.Intn(8958)), now) {
						held++
					}
				case 2:
					now += sim.Time(rng.Intn(20_000_000)) // up to 20µs idle
				case 3:
					at, ok := q.ReadyAt(now)
					if ok != (held > 0) {
						t.Fatalf("step %d: ReadyAt ok=%v holding %d", step, ok, held)
					}
					if !ok {
						continue
					}
					if at < now {
						t.Fatalf("step %d: ReadyAt %v before now %v", step, at, now)
					}
					if at > now {
						if _, early := q.Dequeue(at - 1); early {
							t.Fatalf("step %d: a frame left a picosecond before ReadyAt %v", step, at)
						}
					}
					now = at
					if _, ok := q.Dequeue(now); !ok {
						t.Fatalf("step %d: Dequeue declined at its own ReadyAt %v", step, at)
					}
					held--
				}
				if q.Len() != held {
					t.Fatalf("step %d: Len %d, holding %d", step, q.Len(), held)
				}
			}
		})
	}
}
