package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSupervisedTablesGolden pins the four tables whose worlds run a
// supervisor — E11 (overload governor), E13 (per-tenant governor), E15
// (health monitor), E16 (upgrade canary) — against a committed rendering, at
// the scale and fault seed their determinism tests use. The determinism tests
// prove a table is the same at any worker width *within* one build;
// this proves it is the same *across* builds, so a PR that claims "tables
// unchanged" has a file to be byte-identical to.
func TestSupervisedTablesGolden(t *testing.T) {
	t.Setenv("NORMAN_FAULT_SEED", "7")
	var b strings.Builder
	_, e11 := RunE11(0.12)
	_, e13 := RunE13(0.12)
	_, e15 := RunE15(0.12)
	_, e16 := RunE16(0.12)
	for _, tab := range []interface{ String() string }{e11, e13, e15, e16} {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	checkGolden(t, filepath.Join("testdata", "supervised_tables.golden"), b.String())
}

// TestArchTablesGolden does the same for the tables that sweep the dataplane
// architectures themselves (E1, E2, E6, E7, E8 run all five; E4, E9, E10 run
// the kernel stack beside KOPI), so a refactor of internal/arch that claims
// "E1–E10 unchanged" is held to a file too.
func TestArchTablesGolden(t *testing.T) {
	t.Setenv("NORMAN_FAULT_SEED", "7")
	var b strings.Builder
	_, e1 := RunE1(0.25)
	_, e2 := RunE2(0.5)
	_, e4 := RunE4(0.5)
	_, e6 := RunE6(0.4)
	_, e7 := RunE7(0.4)
	_, e8 := RunE8(0.5)
	_, e9 := RunE9(0.05)
	_, e10 := RunE10(0.12)
	for _, tab := range []interface{ String() string }{e1, e2, e4, e6, e7, e8, e9, e10} {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	checkGolden(t, filepath.Join("testdata", "arch_tables.golden"), b.String())
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
