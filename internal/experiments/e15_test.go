package experiments

import "testing"

// TestE15HealthFailover asserts the architectural content of the table:
//
//   - Raw bypass has a fast path but no supervisor: the SRAM burst corrupts
//     cached verdicts and the datapath serves them — CorruptServed grows and
//     corrupted Drop verdicts blackhole flows for the rest of the run.
//   - KOPI detects every corrupted entry before it is served (checksum
//     verification), quarantines the cache onto the kernel slow path, and
//     after probation restores the fast path: the recovery-window hit rate
//     returns to at least 95% of the pre-fault hit rate.
//   - Nothing is ever lost silently, in any world: the conservation ledger
//     balances even while the link is down, the cache is corrupted and the
//     pipeline is storming.
func TestE15HealthFailover(t *testing.T) {
	t.Setenv("NORMAN_FAULT_SEED", "7")
	points, _ := RunE15(0.25)

	byArch := make(map[string]E15Point, len(points))
	for _, p := range points {
		byArch[p.Arch] = p
	}
	kernel, ok := byArch["kernelstack"]
	if !ok {
		t.Fatal("table must include the kernelstack row")
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
		if p.LinkDrops == 0 {
			t.Fatalf("%s: the link flap must drop frames at the MAC", p.Arch)
		}
	}

	// Bypass serves corruption; KOPI serves none.
	if bypass.CorruptServed == 0 {
		t.Fatal("raw bypass must serve at least one corrupted verdict")
	}
	if bypass.ChecksumFails != 0 {
		t.Fatalf("raw bypass runs unverified, yet detected %d checksum failures",
			bypass.ChecksumFails)
	}
	if kopi.CorruptServed != 0 {
		t.Fatalf("kopi served %d corrupted verdicts past verification", kopi.CorruptServed)
	}
	if kopi.ChecksumFails == 0 {
		t.Fatal("kopi must detect the SRAM burst as checksum failures")
	}

	// The failover story: quarantine happened, failback happened, and the
	// restored fast path performs like the pre-fault one.
	if kopi.Quarantines == 0 {
		t.Fatal("kopi must quarantine under the fault schedule")
	}
	if kopi.Failbacks == 0 {
		t.Fatal("kopi must fail back after probation")
	}
	if kopi.PreHitPct < 90 {
		t.Fatalf("pre-fault fast path must be warm: %.1f%%", kopi.PreHitPct)
	}
	if kopi.PostHitPct < 0.95*kopi.PreHitPct {
		t.Fatalf("recovered hit rate %.1f%% must reach 95%% of pre-fault %.1f%%",
			kopi.PostHitPct, kopi.PreHitPct)
	}

	// Blackholing is visible in delivery: bypass delivers strictly less than
	// kopi because its corrupted Drop verdicts persist for the rest of the
	// run while kopi's detection window is a few samples wide.
	if bypass.Delivered >= kopi.Delivered {
		t.Fatalf("bypass (%d delivered) must blackhole relative to kopi (%d)",
			bypass.Delivered, kopi.Delivered)
	}

	// The trap storm only bites the world whose every packet runs the
	// pipeline: the kernel stack absorbs all 8 traps as fallbacks, while the
	// cache-warm worlds never run the stormed chain at all — the fast path
	// shields them from pipeline faults just as it exposes them to SRAM ones.
	if kernel.TrapFallbacks != e15StormTraps {
		t.Fatalf("kernelstack must absorb the full storm: %d of %d traps",
			kernel.TrapFallbacks, e15StormTraps)
	}
}
