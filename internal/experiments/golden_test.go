package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// pins is the scale each experiment's table is pinned at: small enough to
// keep the suite quick, large enough that every row of the sweep is there.
var pins = map[string]Scale{
	"E1": 0.25, "E2": 0.5, "E3": 0.1, "E4": 0.5, "E5": 0.2, "E6": 0.4, "E7": 0.4, "E8": 0.5,
	"E9": 0.05, "E10": 0.12, "E11": 0.12, "E12": 0.002, "E13": 0.12, "E14": 0.12, "E15": 0.12, "E16": 0.12,
}

// TestExperimentTables backs the harness's core guarantee for every entry of
// All: fanning a sweep's independent worlds across a pool changes wall clock
// only. At its pin scale and fault seed 7 each experiment runs sequentially
// (one worker, inline) and on eight workers; the typed results must be equal
// and both rendered tables must equal testdata/tables/<ID>.golden, so a
// change that claims "tables unchanged" has a file to be byte-identical to
// across builds as well as across widths.
func TestExperimentTables(t *testing.T) {
	t.Setenv("NORMAN_FAULT_SEED", "7")
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	ids := map[string]bool{}
	for _, e := range All {
		ids[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			scale, ok := pins[e.ID]
			if !ok {
				t.Fatalf("%s has no pin scale", e.ID)
			}
			SetWorkers(1)
			seq, seqTbl := e.Run(scale)
			SetWorkers(8)
			wide, wideTbl := e.Run(scale)
			if !reflect.DeepEqual(seq, wide) {
				t.Errorf("results differ between 1 and 8 workers:\n%+v\n%+v", seq, wide)
			}
			golden := filepath.Join("testdata", "tables", e.ID+".golden")
			checkGolden(t, golden, seqTbl.String())
			checkGolden(t, golden, wideTbl.String())
		})
	}
	for id := range pins {
		if !ids[id] {
			t.Errorf("pins names %s, which All does not list", id)
		}
	}
}

// TestSupervisedTablesGolden renders the four tables whose worlds run a
// supervisor — E11 (overload governor), E13 (per-tenant governor), E15
// (health monitor), E16 (upgrade canary) — back to back at the default pool
// width, the one kopibench runs at, and holds each to its golden.
func TestSupervisedTablesGolden(t *testing.T) {
	checkTables(t, "E11", "E13", "E15", "E16")
}

// TestArchTablesGolden does the same for the tables that sweep the dataplane
// architectures themselves (E1, E2, E6, E7, E8 run all five; E4, E9, E10 run
// the kernel stack beside KOPI).
func TestArchTablesGolden(t *testing.T) {
	checkTables(t, "E1", "E2", "E4", "E6", "E7", "E8", "E9", "E10")
}

// checkTables runs the named experiments in order at their pin scales under
// fault seed 7 and the current pool width, and checks each rendered table
// against testdata/tables/<ID>.golden.
func checkTables(t *testing.T, ids ...string) {
	t.Helper()
	t.Setenv("NORMAN_FAULT_SEED", "7")
	for _, id := range ids {
		i := slices.IndexFunc(All, func(e Experiment) bool { return e.ID == id })
		if i < 0 {
			t.Fatalf("All does not list %s", id)
		}
		_, tbl := All[i].Run(pins[id])
		checkGolden(t, filepath.Join("testdata", "tables", id+".golden"), tbl.String())
	}
}

// checkGolden compares got with the committed file. A deliberate behaviour
// change regenerates the file by deleting it and running the test once: a
// missing golden is written from got and the run fails so the new file gets
// reviewed, never silently adopted.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: wrote it from this run; review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
