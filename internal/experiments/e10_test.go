package experiments

import "testing"

// TestE10RecoveryClaims asserts the architectural content of the table: on
// KOPI (and bypass) the restart costs zero dataplane packets and breaks no
// connections, every restart reconciles to a clean diff with invariants
// intact, mid-outage mutations are counted as rejected, and on kopi the
// injected NIC-state loss forces actual repair actions.
func TestE10RecoveryClaims(t *testing.T) {
	t.Setenv("NORMAN_FAULT_SEED", "42")
	rows, _ := RunE10(0.12)

	if len(rows) != 9 {
		t.Fatalf("want 3 archs x 3 outages = 9 rows, got %d", len(rows))
	}
	sawKernelLoss := false
	for _, r := range rows {
		if !r.InvariantsOK || !r.Clean {
			t.Fatalf("%s@%gus: restart must reconcile clean with invariants ok: %+v",
				r.Arch, r.OutageUs, r)
		}
		if r.Rejected != 5 {
			t.Fatalf("%s@%gus: all 5 mid-outage mutations must be rejected, got %d",
				r.Arch, r.OutageUs, r.Rejected)
		}
		if r.Broken != 0 {
			t.Fatalf("%s@%gus: connections must survive the restart: %+v",
				r.Arch, r.OutageUs, r)
		}
		if r.RecoveryUs <= 0 {
			t.Fatalf("%s@%gus: recovery time must be positive: %+v",
				r.Arch, r.OutageUs, r)
		}
		switch r.Arch {
		case "kopi", "bypass":
			if r.Lost != 0 {
				t.Fatalf("%s@%gus: ring dataplane must lose zero packets to the "+
					"control-plane restart, lost %d", r.Arch, r.OutageUs, r.Lost)
			}
		case "kernelstack":
			if r.Lost > 0 {
				sawKernelLoss = true
			}
		}
		if r.Arch == "kopi" && r.Repairs == 0 {
			t.Fatalf("kopi@%gus: injected NIC-state loss must force repairs: %+v",
				r.OutageUs, r)
		}
	}
	if !sawKernelLoss {
		t.Fatal("kernelstack must drop packets during some outage width")
	}
}
