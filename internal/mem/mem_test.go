package mem

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"norman/internal/packet"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing(4, 0x1000)
	for i := 0; i < 4; i++ {
		p := packet.NewUDP(packet.MAC{}, packet.MAC{}, 1, 2, uint16(i), 9, 0)
		if err := r.Push(Desc{Pkt: p}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	if err := r.Push(Desc{}); !errors.Is(err, ErrRingFull) {
		t.Fatalf("push to full: %v", err)
	}
	for i := 0; i < 4; i++ {
		d, err := r.Pop()
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if d.Pkt.UDP.SrcPort != uint16(i) {
			t.Fatalf("FIFO violated: got %d want %d", d.Pkt.UDP.SrcPort, i)
		}
	}
	if _, err := r.Pop(); !errors.Is(err, ErrRingEmpty) {
		t.Fatalf("pop empty: %v", err)
	}
	p, c, drops := r.Counters()
	if p != 4 || c != 4 || drops != 1 {
		t.Fatalf("counters: %d %d %d", p, c, drops)
	}
}

// TestRingWatermarks pins the high watermark exactly: a ring of capacity c
// holding n descriptors reads above it iff n >= 3c/4 > 0, so a one-slot ring
// never trips.
func TestRingWatermarks(t *testing.T) {
	for _, c := range []int{1, 2, 4, 8, 16} {
		t.Run(fmt.Sprintf("cap%d", c), func(t *testing.T) {
			r := NewRing(c, 0x1000)
			for n := 0; ; n++ {
				if want := n >= 3*c/4 && 3*c/4 > 0; r.AboveHigh() != want {
					t.Fatalf("%d/%d occupied: AboveHigh = %v, want %v", n, c, !want, want)
				}
				if n == c {
					break
				}
				if err := r.Push(Desc{}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRingOverflowRejects: every push refused by a full ring is a counted
// drop, never a silent one.
func TestRingOverflowRejects(t *testing.T) {
	r := NewRing(2, 0x1000)
	_ = r.Push(Desc{})
	_ = r.Push(Desc{})
	for i := 0; i < 3; i++ {
		if err := r.Push(Desc{}); !errors.Is(err, ErrRingFull) {
			t.Fatalf("overflow push %d: %v", i, err)
		}
	}
	if _, _, dropped := r.Counters(); dropped != 3 {
		t.Fatalf("overflow rejects: got %d want 3", dropped)
	}
}

func TestRingWraparoundAddresses(t *testing.T) {
	r := NewRing(4, 0x1000)
	if r.SlotAddr(0) != 0x1000 || r.SlotAddr(5) != 0x1000+1*64 {
		t.Fatalf("slot addressing: %x %x", r.SlotAddr(0), r.SlotAddr(5))
	}
	if r.HeadAddr() != 0x1000 {
		t.Fatalf("head addr %x", r.HeadAddr())
	}
	_ = r.Push(Desc{})
	if r.HeadAddr() != 0x1040 || r.TailAddr() != 0x1000 {
		t.Fatalf("after push: head %x tail %x", r.HeadAddr(), r.TailAddr())
	}
}

func TestRingCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d should panic", bad)
				}
			}()
			NewRing(bad, 0)
		}()
	}
}

// Property: after any sequence of pushes and pops, Len() equals
// pushes-accepted minus pops-succeeded, and never exceeds capacity.
func TestRingInvariantsQuick(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewRing(8, 0)
		queued := 0
		for _, push := range ops {
			if push {
				if err := r.Push(Desc{}); err == nil {
					queued++
				}
			} else {
				if _, err := r.Pop(); err == nil {
					queued--
				}
			}
			if r.Len() != queued || queued < 0 || queued > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	a := NewAlloc()
	r1 := a.Take(100, 64)
	r2 := a.Take(100, 64)
	if r1%64 != 0 || r2%64 != 0 {
		t.Fatalf("alignment: %x %x", r1, r2)
	}
	if r2 < r1+100 {
		t.Fatalf("overlap: %x %x", r1, r2)
	}
	r3 := a.Take(1, 4096)
	if r3%4096 != 0 {
		t.Fatalf("page alignment: %x", r3)
	}
}

func TestNotifyQueueOverflow(t *testing.T) {
	q := NewNotifyQueue(2)
	ok1 := q.Push(Notification{ConnID: 1, Kind: NotifyRxReady, At: 10})
	ok2 := q.Push(Notification{ConnID: 2, Kind: NotifyTxDrained, At: 20})
	ok3 := q.Push(Notification{ConnID: 3, At: 30})
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("push results: %v %v %v", ok1, ok2, ok3)
	}
	if !q.Overflowed() {
		t.Fatal("overflow must be recorded")
	}
	n, ok := q.Pop()
	if !ok || n.ConnID != 1 || n.Kind != NotifyRxReady {
		t.Fatalf("pop: %+v %v", n, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	pushed, dropped := q.Counters()
	if pushed != 2 || dropped != 1 {
		t.Fatalf("counters: %d %d", pushed, dropped)
	}
}

func TestNotifyKindString(t *testing.T) {
	if NotifyRxReady.String() != "rx-ready" || NotifyTxDrained.String() != "tx-drained" {
		t.Fatal("kind strings")
	}
}
