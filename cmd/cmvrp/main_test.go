package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/demand"
	"repro/internal/online"
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

// TestRunTraceCapacityFollowsDimension checks that -trace runs at Theorem
// 1.4.2's capacity (4*3^l+l)*max(omega_c,1) for the spec's own dimension l:
// 13 for a 1-D spec and 111 for a 3-D one, where omega_c is at most 1.
func TestRunTraceCapacityFollowsDimension(t *testing.T) {
	for _, tc := range []struct {
		spec, want string
	}{
		{`{"arena": [16], "demands": [{"at": [8], "jobs": 6}, {"at": [3], "jobs": 2}]}`,
			"online event trace at W = 13:\n"},
		{`{"arena": [4, 4, 4], "demands": [{"at": [2, 2, 2], "jobs": 3}]}`,
			"online event trace at W = 111:\n"},
	} {
		var out bytes.Buffer
		if err := run([]string{"-spec", writeSpec(t, tc.spec), "-trace"}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.spec, tc.want, out.String())
		}
	}
}

// TestTraceWonIsThreshold checks that the Won which testdata/trace_4x4.txt
// pins, 9, is the instance's threshold within the search's 5% tolerance: a
// fresh runner at capacity 9 serves all 20 jobs with no failed search, and
// one at 9 - 0.05*9 = 8.55 does not.
func TestTraceWonIsThreshold(t *testing.T) {
	arena, m, err := demand.ParseSpec([]byte(`{"arena": [4, 4], "demands": [{"at": [2, 2], "jobs": 20}]}`))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := demand.SequenceOf(m, demand.OrderSorted, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		capacity float64
		feasible bool
	}{{9, true}, {8.55, false}} {
		r, err := online.NewRunner(online.Options{Arena: arena, CubeSide: 2, Capacity: tc.capacity, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(seq)
		if err != nil {
			t.Fatal(err)
		}
		ok := res.Served == int64(seq.Len()) && res.OK() && res.SearchFailures == 0
		if ok != tc.feasible {
			t.Errorf("capacity %v: served %d/%d, %d failures, %d failed searches; feasible %v, want %v",
				tc.capacity, res.Served, seq.Len(), len(res.Failures), res.SearchFailures, ok, tc.feasible)
		}
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
