package main

import (
	"bytes"
	"strings"
	"testing"
)

func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	runErr := run(args, &buf)
	return buf.String(), runErr
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, []string{"-quick", "-run", "E9"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E9") || strings.Contains(out, "E4") {
		t.Errorf("expected only E9:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := capture(t, []string{"-quick", "-run", "E42"}); err == nil {
		t.Error("unknown experiment id should fail")
	}
}

func TestRunQuickAll(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-all still runs every experiment")
	}
	out, err := capture(t, []string{"-quick"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "### E") {
		t.Fatalf("missing experiment headers:\n%s", out[:200])
	}
	if got := strings.Count(out, "### E"); got != 15 {
		t.Errorf("expected 15 experiment sections, got %d", got)
	}
}

func TestBadFlag(t *testing.T) {
	if _, err := capture(t, []string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag should fail")
	}
}

// TestWorkersFlagByteIdentical pins the command-level contract: the whole
// -quick output is byte-identical at -workers 1 and 8.
func TestWorkersFlagByteIdentical(t *testing.T) {
	serial, err := capture(t, []string{"-quick", "-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := capture(t, []string{"-quick", "-workers", "8"})
	if err != nil {
		t.Fatal(err)
	}
	if serial != wide {
		t.Errorf("-quick output differs between -workers 1 and 8:\n%s\nvs\n%s", serial, wide)
	}
}

func TestWorkersFlagValidation(t *testing.T) {
	if _, err := capture(t, []string{"-quick", "-workers", "0"}); err == nil {
		t.Error("-workers 0 should fail")
	}
}
