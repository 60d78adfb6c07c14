package qos

import (
	"testing"

	"norman/internal/sim"
)

// TestBucketDebtAndFits: a bucket covers at most its depth; the pacer's debt
// rule lets a larger frame leave from a full bucket and makes the next one
// wait for the whole of it to be paid back.
func TestBucketDebtAndFits(t *testing.T) {
	b := NewBucket(1e6, 1514) // one byte per µs
	if !b.Fits(1514) || b.Fits(1515) {
		t.Fatal("Fits must be exactly n <= depth")
	}
	if at := b.ReadyAt(8958, 0); at != 0 {
		t.Fatalf("a frame larger than the depth waits for a full bucket, which it is at 0: got %v", at)
	}
	b.Take(8958, 0)
	// 8958 − 1514 bytes of debt, then 60 bytes of credit.
	if at, want := b.ReadyAt(60, 0), sim.Time((8958-1514+60)*sim.Microsecond); at != want {
		t.Fatalf("after the debt: ReadyAt(60) = %v, want %v", at, want)
	}
	// A second jumbo frame waits until the bucket is full again.
	if at, want := b.ReadyAt(8958, 0), sim.Time(8958*sim.Microsecond); at != want {
		t.Fatalf("after the debt: ReadyAt(8958) = %v, want %v", at, want)
	}
	// Credit never exceeds the depth, however long the bucket idles.
	late := sim.Time(sim.Second)
	b.Take(1514, late)
	if at := b.ReadyAt(1, late); at != late+sim.Time(sim.Microsecond) {
		t.Fatalf("an idle bucket held more than its depth: next byte at %v", at)
	}
}

// TestBucketExact: at 3 MB/s a byte costs 333333⅓ ps. A million single-byte
// takes, each at the instant ReadyAt names, land on the exact ceiling of
// k·⅓ µs every time: the remainder is carried, never rounded away.
func TestBucketExact(t *testing.T) {
	b := NewBucket(3e6, 3)
	b.Take(3, 0) // drained at 0
	for k := int64(1); k <= 3_000_000; k++ {
		at := b.ReadyAt(1, 0)
		if want := sim.Time((k*1_000_000 + 2) / 3); at != want {
			t.Fatalf("byte %d ready at %d ps, want %d", k, at, want)
		}
		if b.ReadyAt(1, at-1) != at {
			t.Fatalf("byte %d: ReadyAt moved when asked a picosecond early", k)
		}
		b.Take(1, at)
	}
	if at := b.ReadyAt(1, 0); at != sim.Time(sim.Second)+333334 {
		t.Fatalf("after one second of bytes the next is due at %v", at)
	}
}
