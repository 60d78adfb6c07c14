package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden pins what the example prints: testdata/output.golden,
// byte for byte. After a deliberate change re-cut it with
// `go run ./examples/blocking > examples/blocking/testdata/output.golden`
// and review the diff.
func TestOutputGolden(t *testing.T) {
	var got bytes.Buffer
	run(&got)
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/output.golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
