package experiments

import "testing"

// TestE9GracefulDegradation asserts the robustness claims the table is built
// to show: clean runs complete, total blackholes abort in bounded virtual
// time, and the injected overlay trap is absorbed by the last-good fallback
// on the architecture that has an overlay dataplane.
func TestE9GracefulDegradation(t *testing.T) {
	t.Setenv("NORMAN_FAULT_SEED", "42")
	rows, _ := RunE9(0.05)

	byKey := map[string]E9Row{}
	for _, r := range rows {
		byKey[r.Arch+"@"+floatKey(r.FaultPct)] = r
	}

	for _, a := range []string{"kernelstack", "bypass", "kopi"} {
		clean, ok := byKey[a+"@0"]
		if !ok {
			t.Fatalf("missing clean row for %s", a)
		}
		if clean.Completed != e9Streams || clean.Aborted != 0 {
			t.Fatalf("%s fault-free run must complete all streams: %+v", a, clean)
		}

		dead := byKey[a+"@100"]
		if dead.Completed != 0 || dead.Aborted != e9Streams {
			t.Fatalf("%s under 100%% loss must abort every stream: %+v", a, dead)
		}
		if dead.TerminalAt <= 0 || dead.TerminalAt >= e9Horizon {
			t.Fatalf("%s blackhole abort must be bounded inside the horizon: %v",
				a, dead.TerminalAt)
		}
		if dead.GoodputGbps != 0 {
			t.Fatalf("%s cannot have goodput at 100%% loss: %+v", a, dead)
		}

		// Degradation is monotone at the ends: faults cost goodput.
		if mid := byKey[a+"@10"]; mid.GoodputGbps >= clean.GoodputGbps {
			t.Fatalf("%s: 10%% faults should cost goodput: clean %.3f vs faulty %.3f",
				a, clean.GoodputGbps, mid.GoodputGbps)
		}
	}

	// The overlay trap fires only where an overlay dataplane exists.
	if r := byKey["kopi@100"]; r.TrapFallbacks == 0 {
		t.Fatalf("kopi must absorb the injected overlay trap via fallback: %+v", r)
	}
	if r := byKey["bypass@100"]; r.TrapFallbacks != 0 {
		t.Fatalf("bypass has no overlay to trap: %+v", r)
	}
}

func floatKey(f float64) string {
	switch f {
	case 0:
		return "0"
	case 100:
		return "100"
	case 10:
		return "10"
	default:
		return "mid"
	}
}
