package experiments

import "testing"

// TestE14FlowCache asserts the architectural content of the table:
//
//   - The fast path works: with the flood small enough to fit, nearly every
//     lookup hits and interpreter cycles per frame collapse to almost zero —
//     a hit costs one lookup, not one interpretation.
//   - Thrash degrades gracefully: at 8192 flood flows the shared cache's hit
//     rate collapses and evictions churn, but the world never loses a frame
//     silently and the cache's conservation ledger stays balanced.
//   - The tenant partition isolates: the victim's private hit rate stays at
//     established-flow levels under the full flood, strictly above the
//     shared cache's, and the flood's failed installs are typed denials.
func TestE14FlowCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity sweep: the sub-0.5 scales shorten runs into the warm-up transient")
	}
	points, _ := RunE14(0.6)

	byFlows := make(map[int]E14Point, len(points))
	for _, p := range points {
		byFlows[p.FloodFlows] = p
	}
	fit, ok := byFlows[64]
	if !ok {
		t.Fatal("sweep must include the 64-flow everything-fits point")
	}
	thrash, ok := byFlows[8192]
	if !ok {
		t.Fatal("sweep must include the 8192-flow thrash point")
	}

	// Zero silent loss and a balanced ledger in every leg of every point.
	for _, p := range points {
		if p.OffSilent != 0 || p.ShrSilent != 0 || p.PrtSilent != 0 {
			t.Fatalf("flood=%d: silent loss off=%d shr=%d prt=%d",
				p.FloodFlows, p.OffSilent, p.ShrSilent, p.PrtSilent)
		}
		if p.ShrLedger != 0 || p.PrtLedger != 0 {
			t.Fatalf("flood=%d: conservation ledger broken shr=%d prt=%d",
				p.FloodFlows, p.ShrLedger, p.PrtLedger)
		}
	}

	// The fast path: when the working set fits, hits dominate and the
	// interpreter all but idles.
	if fit.ShrHitPct < 99 {
		t.Fatalf("fitting working set must hit >=99%%: %.1f%%", fit.ShrHitPct)
	}
	if fit.OffCycPkt < 5 {
		t.Fatalf("cache-off baseline must pay interpretation: %.1f cyc/pkt", fit.OffCycPkt)
	}
	if fit.ShrCycPkt > 0.1*fit.OffCycPkt {
		t.Fatalf("cache-on interpreter cost %.2f must be <10%% of off %.2f cyc/pkt",
			fit.ShrCycPkt, fit.OffCycPkt)
	}
	// A hit is never slower than an interpretation: the cached world's
	// victim tail must not regress past the cache-off baseline.
	for _, p := range points {
		if p.ShrP99 > 1.05*p.OffP99 {
			t.Fatalf("flood=%d: cached victim p99 %.2fµs regressed past off %.2fµs",
				p.FloodFlows, p.ShrP99, p.OffP99)
		}
	}

	// Thrash: the flood churns the shared cache and the global hit rate
	// collapses — but degradation is graceful (counters, not corruption).
	if thrash.ShrHitPct > 70 {
		t.Fatalf("8192-flow flood must collapse the shared hit rate: %.1f%%", thrash.ShrHitPct)
	}
	if thrash.ShrEvicts == 0 {
		t.Fatal("thrash must evict")
	}

	// Partition: the victim's hit rate survives the full flood at
	// established-flow levels, strictly better than sharing, and the
	// flood's pressure shows up as typed denials.
	if thrash.PrtVicHitPct < 99 {
		t.Fatalf("partitioned victim hit rate must hold >=99%%: %.1f%%", thrash.PrtVicHitPct)
	}
	if thrash.PrtVicHitPct <= thrash.ShrVicHitPct {
		t.Fatalf("partition must beat sharing for the victim: %.1f%% vs %.1f%%",
			thrash.PrtVicHitPct, thrash.ShrVicHitPct)
	}
	if thrash.PrtDenied == 0 {
		t.Fatal("partition must deny the flood's installs, not absorb them")
	}
}
