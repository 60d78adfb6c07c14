package experiments

import "testing"

// TestE16LiveUpgrade asserts the architectural content of the table:
//
//   - Raw bypass pays §4.4's price for new dataplane logic: a bitstream
//     respin whose outage outlasts the run. Every subsequent frame is an
//     outage drop and every connection is broken.
//   - KOPI's staged cutover is hitless: no outage drops, no broken
//     connections, no pause-buffer overflow, and a worst delivery gap that is
//     orders of magnitude below the respin blackout.
//   - The bad generation never survives: the canary breaches on the ingress
//     drop rate, rolls back automatically, and the warm-restored fast path
//     recovers at least 95% of its pre-upgrade hit rate.
//   - Nothing is ever lost silently, in any world: the conservation ledger
//     balances through the pause, the flip, the rollback and the blackout.
func TestE16LiveUpgrade(t *testing.T) {
	t.Setenv("NORMAN_FAULT_SEED", "7")
	points, _ := RunE16(0.25)

	byArch := make(map[string]E16Point, len(points))
	for _, p := range points {
		byArch[p.Arch] = p
	}
	bypass, ok := byArch["bypass"]
	if !ok {
		t.Fatal("table must include the bypass row")
	}
	kopi, ok := byArch["kopi"]
	if !ok {
		t.Fatal("table must include the kopi row")
	}

	// The ledger is the proof of zero silent loss, everywhere.
	for _, p := range points {
		if p.Silent != 0 {
			t.Fatalf("%s: %d frames lost silently", p.Arch, p.Silent)
		}
	}

	// Bypass eats the full respin: blackholed to the end of the run.
	if bypass.OutageDrops == 0 {
		t.Fatal("the bypass respin must eat traffic as outage drops")
	}
	if bypass.BrokenConns != pairVictimConns {
		t.Fatalf("the respin must break all %d connections, broke %d",
			pairVictimConns, bypass.BrokenConns)
	}

	// KOPI's cutover is hitless: the pause buffer absorbed the flip.
	if kopi.OutageDrops != 0 {
		t.Fatalf("kopi took %d outage drops across a staged upgrade", kopi.OutageDrops)
	}
	if kopi.BrokenConns != 0 {
		t.Fatalf("kopi broke %d connections across the upgrade", kopi.BrokenConns)
	}
	if kopi.PauseBuffered == 0 {
		t.Fatal("the cutover pause must have buffered frames")
	}
	if kopi.PauseDrops != 0 {
		t.Fatalf("the bounded pause buffer overflowed %d frames", kopi.PauseDrops)
	}

	// The bad generation was caught and reverted, and the restored fast path
	// performs like the committed one.
	if kopi.CanaryBreaches == 0 {
		t.Fatal("the drop-all generation must breach the canary")
	}
	if kopi.Rollbacks != 1 {
		t.Fatalf("exactly one rollback expected, got %d", kopi.Rollbacks)
	}
	if kopi.WarmEntries == 0 {
		t.Fatal("the rollback must warm-restore flow-cache entries")
	}
	if kopi.PreHitPct < 90 {
		t.Fatalf("pre-upgrade fast path must be warm: %.1f%%", kopi.PreHitPct)
	}
	if kopi.PostHitPct < 0.95*kopi.PreHitPct {
		t.Fatalf("recovered hit rate %.1f%% must reach 95%% of pre-upgrade %.1f%%",
			kopi.PostHitPct, kopi.PreHitPct)
	}

	// The latency blip is bounded by the pause, not the outage: kopi's worst
	// delivery gap must be far below the blackout bypass shows.
	if kopi.MaxGapUs*10 > bypass.MaxGapUs {
		t.Fatalf("kopi max gap %.1fµs must be an order of magnitude under the bypass blackout %.1fµs",
			kopi.MaxGapUs, bypass.MaxGapUs)
	}
}
