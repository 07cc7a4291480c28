package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSolvesSpec(t *testing.T) {
	spec := `{
		"arena": [16, 16],
		"demands": [
			{"at": [8, 8], "jobs": 120},
			{"at": [4, 4], "jobs": 30}
		]
	}`
	var out bytes.Buffer
	if err := run([]string{"-spec", writeSpec(t, spec)}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"omega_c", "Algorithm 1", "verified offline schedule", "150 jobs"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunOnlineFlag(t *testing.T) {
	spec := `{"arena": [8, 8], "demands": [{"at": [4, 4], "jobs": 40}]}`
	var out bytes.Buffer
	if err := run([]string{"-spec", writeSpec(t, spec), "-online"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "measured Won") {
		t.Errorf("missing online measurement:\n%s", out.String())
	}
}

func TestRunShowFlag(t *testing.T) {
	spec := `{"arena": [8, 8], "demands": [{"at": [4, 4], "jobs": 40}]}`
	var out bytes.Buffer
	if err := run([]string{"-spec", writeSpec(t, spec), "-show"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "demand heat map") || !strings.Contains(text, "schedule map") {
		t.Errorf("missing renders:\n%s", text)
	}
	if !strings.Contains(text, "@") {
		t.Errorf("heat map missing hotspot:\n%s", text)
	}
}

// TestRunTraceFlag pins the whole -trace output, event log included, byte
// for byte against testdata/trace_4x4.txt.
func TestRunTraceFlag(t *testing.T) {
	spec := `{"arena": [4, 4], "demands": [{"at": [2, 2], "jobs": 20}]}`
	var out bytes.Buffer
	if err := run([]string{"-spec", writeSpec(t, spec), "-trace"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_4x4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("-trace output drifted from testdata/trace_4x4.txt:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("missing -spec should fail")
	}
	if err := run([]string{"-spec", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing file should fail")
	}
	if err := run([]string{"-spec", writeSpec(t, "{nope")}, &out); err == nil {
		t.Error("bad JSON should fail")
	}
	bad := `{"arena": [8, 8], "demands": [{"at": [1], "jobs": 5}]}`
	if err := run([]string{"-spec", writeSpec(t, bad)}, &out); err == nil {
		t.Error("dimension mismatch should fail")
	}
	neg := `{"arena": [8, 8], "demands": [{"at": [1, 1], "jobs": -5}]}`
	if err := run([]string{"-spec", writeSpec(t, neg)}, &out); err == nil {
		t.Error("negative jobs should fail")
	}
	noArena := `{"arena": [], "demands": []}`
	if err := run([]string{"-spec", writeSpec(t, noArena)}, &out); err == nil {
		t.Error("empty arena should fail")
	}
}
