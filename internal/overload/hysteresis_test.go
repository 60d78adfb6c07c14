package overload

import "testing"

// TestHysteresisDeadBand pins the band between the watermarks for the global
// machine and every tenant's alike (they share advance): a reading that is
// not above the current state and not calm — occupancy under the high
// watermark but not yet under the low one — never moves the machine, and it
// breaks whatever run was building.
func TestHysteresisDeadBand(t *testing.T) {
	cfg := Config{} // EscalateAfter 2, ClearAfter 3
	for state := StateOK; state <= StateSaturated; state++ {
		m := machine{state: state}
		for i := 0; i < 50; i++ {
			for raw := StateOK; raw <= state; raw++ {
				if _, moved := m.advance(raw, false, cfg); moved {
					t.Fatalf("dead-band reading %v moved the machine from %v to %v", raw, state, m.state)
				}
			}
		}
	}

	m := machine{state: StatePressured}
	for i, step := range []struct {
		raw  State
		calm bool
	}{
		{StateSaturated, false}, // hot 1
		{StatePressured, false}, // dead band: run broken
		{StateSaturated, false}, // hot 1 again, not 2
		{StateOK, true},         // calm 1
		{StateOK, true},         // calm 2
		{StateOK, false},        // dead band: run broken
		{StateOK, true},         // calm 1 again
		{StateOK, true},         // calm 2, not 3
	} {
		if _, moved := m.advance(step.raw, step.calm, cfg); moved {
			t.Fatalf("step %d moved the machine to %v: a dead-band sample must reset both runs", i, m.state)
		}
	}
	if prev, moved := m.advance(StateOK, true, cfg); !moved || prev != StatePressured || m.state != StateOK || m.transitions != 1 {
		t.Fatalf("third consecutive calm sample must clear one level: prev=%v moved=%v state=%v", prev, moved, m.state)
	}
}
