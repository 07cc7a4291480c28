package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

// startProfile starts a CPU profile written to path and returns the
// function that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// foldProfile reads a CPU profile through `go tool pprof -raw` and returns
// each layer's share of its samples.
func foldProfile(path string) (map[string]float64, int, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	return foldRaw(bytes.NewReader(out))
}

var (
	sampleLine   = regexp.MustCompile(`^\s*(\d+)\s+\d+:((?:\s+\d+)+)\s*$`)
	locationLine = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ M=\d+(?: (\S+))?`)
)

// foldRaw attributes every sample of a `pprof -raw` listing to a layer and
// returns each layer's share of the samples with the sample count. A sample
// goes to the package of its leaf frame, the innermost function including
// inlined ones; a standard-library leaf, such as a sort or a rand draw, goes
// to the nearest caller outside the standard library, so the layer that asked
// for the work pays for it. The runtime keeps its own samples.
func foldRaw(r io.Reader) (map[string]float64, int, error) {
	type sample struct {
		count int
		locs  []int // leaf first
	}
	var samples []sample
	// funcs lists each location's functions, innermost first.
	funcs := make(map[int][]string)
	loc := -1
	section := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Samples:"), strings.HasPrefix(line, "Locations"),
			strings.HasPrefix(line, "Mappings"):
			section = strings.TrimSuffix(strings.Fields(line)[0], ":")
			continue
		}
		switch section {
		case "Samples":
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			count, _ := strconv.Atoi(m[1])
			var locs []int
			for _, f := range strings.Fields(m[2]) {
				id, _ := strconv.Atoi(f)
				locs = append(locs, id)
			}
			samples = append(samples, sample{count, locs})
		case "Locations":
			// A location's first line names its innermost function; the
			// lines after it, without an id, are the functions it was
			// inlined into.
			if m := locationLine.FindStringSubmatch(line); m != nil {
				loc, _ = strconv.Atoi(m[1])
				funcs[loc] = []string{m[2]}
			} else if f := strings.Fields(line); loc >= 0 && len(f) > 0 {
				funcs[loc] = append(funcs[loc], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	layerOfStack := func(locs []int) string {
		for _, id := range locs {
			for _, fn := range funcs[id] {
				if l := layerOf(fn); l != "stdlib" {
					return l
				}
			}
		}
		return "stdlib"
	}
	counts := make(map[string]int)
	total := 0
	for _, s := range samples {
		counts[layerOfStack(s.locs)] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("bench: profile has no samples")
	}
	shares := make(map[string]float64, len(counts))
	for layer, n := range counts {
		shares[layer] = float64(n) / float64(total)
	}
	return shares, total, nil
}

// layerOf names the layer a function belongs to: an internal package of
// cpuLayers, "cmvrp" for the facade, "bench" for this benchmark, "runtime"
// for the Go runtime, "stdlib" for the rest of the standard library and
// "other" for unnamed frames and the remaining internal packages.
func layerOf(fn string) string {
	if fn == "" {
		return "other"
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments of a generic function
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime" // assembly-only runtime symbols such as gcWriteBarrier
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "repro":
		return "cmvrp"
	case pkg == "main", pkg == "repro/bench", strings.HasPrefix(pkg, "repro/bench/"):
		return "bench"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		if slices.Contains(cpuLayers, name) {
			return name
		}
		return "other"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}
