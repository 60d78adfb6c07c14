package experiments

import (
	"testing"

	"norman/internal/nic"
)

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
