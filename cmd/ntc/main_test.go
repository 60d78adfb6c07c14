package main

import (
	"reflect"
	"testing"

	"norman"
)

func TestClassFlags(t *testing.T) {
	c := classFlags{}
	if err := c.Set("1001=8"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("1002=0.5"); err != nil {
		t.Fatal(err)
	}
	if c[1001] != 8 || c[1002] != 0.5 {
		t.Fatalf("parsed: %v", c)
	}
	for _, bad := range []string{"nope", "x=1", "1=-?", "=", "1001="} {
		if err := c.Set(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
	if c.String() == "" {
		t.Fatal("String must render")
	}
}

// TestBuildSpecNumbersClassesByUID: classes go to uids in ascending uid
// order whatever order the flags (or the map holding them) give, so the same
// command installs and journals the same classes on every run.
func TestBuildSpecNumbersClassesByUID(t *testing.T) {
	c := classFlags{}
	for _, arg := range []string{"1003=2", "1001=1", "1002=8"} {
		if err := c.Set(arg); err != nil {
			t.Fatal(err)
		}
	}
	want := norman.QdiscSpec{
		Kind:       "wfq",
		Weights:    map[uint32]float64{1: 1, 2: 8, 3: 2},
		ClassOfUID: map[uint32]uint32{1001: 1, 1002: 2, 1003: 3},
		RateBps:    1e9 / 8,
		BurstBytes: 64 * 1024,
	}
	for i := 0; i < 20; i++ {
		if got := buildSpec("wfq", c, 1, 64); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: buildSpec = %+v, want %+v", i, got, want)
		}
	}
}
