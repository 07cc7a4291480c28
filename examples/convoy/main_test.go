package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutput pins the example's whole output byte for byte against
// testdata/output.txt.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output drifted from testdata/output.txt:\n%s", got)
	}
}
