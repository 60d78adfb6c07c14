package mem

import (
	"testing"
	"unsafe"

	"norman/internal/sim"
)

// TestConnSlabHotBudget enforces the flyweight contract: ≤ 64 hot bytes per
// connection across the arrays, and allocation-free opens.
func TestConnSlabHotBudget(t *testing.T) {
	s := NewConnSlab(1024, 1<<30)
	hot := unsafe.Sizeof(s.RxBytes[0]) + unsafe.Sizeof(s.LastAt[0]) +
		unsafe.Sizeof(s.RxPkts[0]) + unsafe.Sizeof(s.TxPkts[0]) +
		unsafe.Sizeof(s.SeqNext[0]) + unsafe.Sizeof(s.OooPkts[0]) +
		unsafe.Sizeof(s.Tenant[0]) + unsafe.Sizeof(s.Bucket[0]) +
		unsafe.Sizeof(s.State[0])
	if hot > 64 {
		t.Fatalf("hot state %d B/conn exceeds the 64 B flyweight budget", hot)
	}
	if len(s.State) != 1024 {
		t.Fatalf("capacity %d", len(s.State))
	}
	s.Open(7, 3, 42)
	if s.State[7] != ConnOpen || s.Bucket[7] != 3 || s.Tenant[7] != 42 {
		t.Fatal("Open did not mark the record")
	}
	if n := testing.AllocsPerRun(100, func() { s.Open(7, 3, 42) }); n != 0 {
		t.Fatalf("Open allocates %.1f/op", n)
	}
}

// TestBurstRing exercises push, wrap, refusal when full and the batched
// drain primitive.
func TestBurstRing(t *testing.T) {
	r := NewBurstRing(8, 4096)
	for i := 0; i < 8; i++ {
		if !r.Push(PktRef{Conn: uint32(i), Seq: uint32(i), Len: 100, At: sim.Time(i)}) {
			t.Fatalf("push %d refused", i)
		}
	}
	if r.Push(PktRef{}) {
		t.Fatal("push into a full ring succeeded")
	}

	burst := make([]PktRef, 5)
	if n := r.PopBurst(burst); n != 5 {
		t.Fatalf("PopBurst = %d", n)
	}
	for i, d := range burst {
		if d.Conn != uint32(i) {
			t.Fatalf("burst[%d].Conn = %d", i, d.Conn)
		}
	}
	// Wrap: push past the array end, then drain the remainder.
	for i := 8; i < 12; i++ {
		if !r.Push(PktRef{Conn: uint32(i)}) {
			t.Fatalf("push %d refused after drain", i)
		}
	}
	big := make([]PktRef, 16)
	if n := r.PopBurst(big); n != 7 {
		t.Fatalf("PopBurst after wrap = %d, want 7", n)
	}
	if big[0].Conn != 5 || big[6].Conn != 11 {
		t.Fatalf("wrap order: first=%d last=%d", big[0].Conn, big[6].Conn)
	}
	if r.PopBurst(big) != 0 {
		t.Fatal("ring should be empty")
	}
}

// TestBurstRingPushBurst exercises the bulk producer mirror: partial
// acceptance at the capacity edge and wrap-around.
func TestBurstRingPushBurst(t *testing.T) {
	r := NewBurstRing(8, 0)
	src := make([]PktRef, 6)
	for i := range src {
		src[i].Conn = uint32(i)
	}
	if n := r.PushBurst(src); n != 6 {
		t.Fatalf("PushBurst = %d", n)
	}
	// Only 2 slots free: bulk push accepts 2.
	if n := r.PushBurst(src); n != 2 {
		t.Fatalf("PushBurst at edge = %d, want 2", n)
	}
	got := make([]PktRef, 8)
	if n := r.PopBurst(got); n != 8 {
		t.Fatalf("PopBurst = %d", n)
	}
	want := []uint32{0, 1, 2, 3, 4, 5, 0, 1}
	for i, w := range want {
		if got[i].Conn != w {
			t.Fatalf("got[%d].Conn = %d, want %d", i, got[i].Conn, w)
		}
	}
	// Wrapped bulk push: tail is mid-array now, so this burst must split.
	if n := r.PushBurst(src); n != 6 {
		t.Fatalf("wrapped PushBurst = %d", n)
	}
	if n := r.PopBurst(got); n != 6 || got[5].Conn != 5 {
		t.Fatalf("wrapped pop n=%d last=%d", n, got[5].Conn)
	}
}

// TestBurstRingZeroAlloc pins the push/drain cycle at zero allocations —
// the invariant the batched drain is built on.
func TestBurstRingZeroAlloc(t *testing.T) {
	r := NewBurstRing(64, 0)
	burst := make([]PktRef, 16)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			r.Push(PktRef{Conn: uint32(i)})
		}
		r.PopBurst(burst)
	}); n != 0 {
		t.Fatalf("push+drain allocates %.1f/op", n)
	}
}
