package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"norman/internal/nic"
)

// TestE12Determinism: the E12 sweep's typed points and rendered table are
// byte-identical between a 1-worker (sequential, inline) run and a wide
// run, and between two runs at the same width. scripts/check.sh repeats the
// table diff under -race via cmd/kopibench.
func TestE12Determinism(t *testing.T) {
	const scale = 0.002
	wide := runtime.NumCPU()
	if wide < 4 {
		wide = 4
	}
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	ref, refTbl := RunE12(scale)
	refStr := refTbl.String()
	if len(ref) == 0 || ref[0].Accepted == 0 {
		t.Fatal("reference sweep is empty")
	}
	for _, w := range []int{1, wide} {
		SetWorkers(w)
		got, tbl := RunE12(scale)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: points differ from the workers=1 reference:\n%+v\n%+v", w, ref, got)
		}
		if s := tbl.String(); s != refStr {
			t.Errorf("workers=%d: table differs from the workers=1 reference\n--- workers=1\n%s\n--- workers=%d\n%s",
				w, refStr, w, s)
		}
	}
}

// TestE12Shape checks the sweep's three laws: below the SRAM wall the NIC
// accepts every offered connection; at the wall it accepts exactly as many
// as its own free SRAM divided by its own per-connection charge; and every
// frame offered to an accepted connection is steered and finds a ring slot.
// (Line rate past E3's cliff overflows the MAC FIFO, a typed drop that
// balanced(w.Drain()) already accounts for.)
func TestE12Shape(t *testing.T) {
	points, tbl := RunE12(0.002)
	t.Logf("\n%s", tbl)
	walled := false
	for _, p := range points {
		if p.SRAMPerConn <= 0 || p.Room <= 0 {
			t.Fatalf("offered %d: degenerate SRAM accounting %+v", p.Offered, p)
		}
		wall := p.Room / p.SRAMPerConn
		switch {
		case p.Offered <= wall && p.Accepted != p.Offered:
			t.Errorf("offered %d below the wall (%d): accepted %d", p.Offered, wall, p.Accepted)
		case p.Offered > wall:
			walled = true
			if p.Accepted != wall {
				t.Errorf("offered %d: accepted %d, want the NIC's %d free bytes / %d B per conn = %d",
					p.Offered, p.Accepted, p.Room, p.SRAMPerConn, wall)
			}
		}
		if d := p.Drops[nic.RxNoSteer] + p.Drops[nic.RxRing]; d != 0 {
			t.Errorf("offered %d: %d frames found no steering entry or ring slot", p.Offered, d)
		}
		if p.GoodputGbps <= 0 || p.HitPct <= 0 || p.CycPerFrame <= 0 {
			t.Errorf("offered %d: degenerate point %+v", p.Offered, p)
		}
	}
	if !walled {
		t.Error("no point of the sweep reached the SRAM wall")
	}
}
