// benchgate compares two `go test -bench` result sets and fails when
// the geometric-mean ns/op ratio (new/old) regresses past a threshold.
// It is the enforcement half of the CI bench-compare job: benchstat
// renders the human-readable delta, benchgate decides pass/fail.
//
// Either side may be raw `go test -bench` text output or a JSON
// baseline previously written with -snapshot:
//
//	go test -run '^$' -bench 'BenchmarkHost(Batch|Parallel|Kernels)' . > new.txt
//	go run ./scripts/benchgate -old old.txt -new new.txt
//	go run ./scripts/benchgate -snapshot old.json -new old.txt
//
// Benchmark names are compared with the trailing -GOMAXPROCS suffix
// stripped, so results from machines with different core counts still
// line up. Benchmarks present on only one side are reported and
// skipped; the gate needs at least one common benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type baseline struct {
	Note       string             `json:"note,omitempty"`
	Benchmarks map[string]float64 `json:"benchmarks"` // name -> ns/op
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op`)

// stripProcs removes the trailing -N GOMAXPROCS suffix Go appends to
// benchmark names ("BenchmarkHostBatch/loop-8" -> ".../loop").
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseText collects ns/op per benchmark from `go test -bench` output,
// averaging repeated runs (-count > 1) of the same benchmark.
func parseText(data []byte) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil || ns <= 0 {
			continue
		}
		name := stripProcs(m[1])
		sums[name] += ns
		counts[name]++
	}
	out := make(map[string]float64, len(sums))
	for name, sum := range sums {
		out[name] = sum / float64(counts[name])
	}
	return out
}

func load(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".json") {
		var b baseline
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return b.Benchmarks, nil
	}
	return parseText(data), nil
}

func main() {
	var (
		oldPath    = flag.String("old", "", "baseline: bench text output or .json snapshot")
		newPath    = flag.String("new", "", "candidate: bench text output or .json snapshot")
		pattern    = flag.String("pattern", `^BenchmarkHost(Batch|Parallel|Kernels|SoA)`, "regexp selecting which benchmarks gate")
		maxRegress = flag.Float64("max-regress", 0.15, "fail when geomean(new/old) exceeds 1+this")
		snapshot   = flag.String("snapshot", "", "instead of gating, write -new results to this .json baseline")
		note       = flag.String("note", "", "note stored in the snapshot")
	)
	flag.Parse()

	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -new is required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -pattern: %v\n", err)
		os.Exit(2)
	}
	newRes, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	for name := range newRes {
		if !re.MatchString(name) {
			delete(newRes, name)
		}
	}
	if len(newRes) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmarks in %s match %s\n", *newPath, *pattern)
		os.Exit(2)
	}

	if *snapshot != "" {
		out, err := json.MarshalIndent(baseline{Note: *note, Benchmarks: newRes}, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*snapshot, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(newRes), *snapshot)
		return
	}

	if *oldPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old is required (or use -snapshot)")
		os.Exit(2)
	}
	oldRes, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	var names, newOnly, oldOnly []string
	for name := range newRes {
		if _, ok := oldRes[name]; ok {
			names = append(names, name)
		} else {
			newOnly = append(newOnly, name)
		}
	}
	for name := range oldRes {
		if re.MatchString(name) {
			if _, ok := newRes[name]; !ok {
				oldOnly = append(oldOnly, name)
			}
		}
	}
	sort.Strings(newOnly)
	sort.Strings(oldOnly)
	for _, name := range newOnly {
		fmt.Printf("new-only (skipped): %s\n", name)
	}
	for _, name := range oldOnly {
		fmt.Printf("old-only (skipped): %s\n", name)
	}
	if len(names) == 0 {
		// Name exactly what went missing on each side, so a renamed
		// benchmark or an over-narrow -bench regexp is diagnosable from
		// the CI log instead of surfacing as a bare geomean error.
		fmt.Fprintf(os.Stderr, "benchgate: no common benchmarks between %s and %s (pattern %s)\n",
			*oldPath, *newPath, *pattern)
		if len(oldOnly) > 0 {
			fmt.Fprintf(os.Stderr, "  expected from the baseline but missing from %s:\n", *newPath)
			for _, name := range oldOnly {
				fmt.Fprintf(os.Stderr, "    %s\n", name)
			}
		} else {
			fmt.Fprintf(os.Stderr, "  baseline %s has no benchmarks matching the pattern\n", *oldPath)
		}
		if len(newOnly) > 0 {
			fmt.Fprintf(os.Stderr, "  present only in %s (renamed, or baseline is stale?):\n", *newPath)
			for _, name := range newOnly {
				fmt.Fprintf(os.Stderr, "    %s\n", name)
			}
		}
		fmt.Fprintln(os.Stderr, "  fix: widen the `go test -bench` selector or refresh the baseline with -snapshot")
		os.Exit(2)
	}
	sort.Strings(names)

	logSum := 0.0
	ratios := make(map[string]float64, len(names))
	for _, name := range names {
		ratio := newRes[name] / oldRes[name]
		ratios[name] = ratio
		logSum += math.Log(ratio)
		fmt.Printf("%-60s old %12.0f ns/op  new %12.0f ns/op  %+.1f%%\n",
			name, oldRes[name], newRes[name], (ratio-1)*100)
	}
	geomean := math.Exp(logSum / float64(len(names)))
	limit := 1 + *maxRegress
	fmt.Printf("geomean ratio new/old: %.4f (limit %.4f over %d benchmarks)\n",
		geomean, limit, len(names))
	if geomean > limit {
		// Re-print the table worst-first on stderr so the offending
		// benchmarks lead the CI failure log instead of hiding in an
		// alphabetical listing.
		sort.Slice(names, func(i, j int) bool { return ratios[names[i]] > ratios[names[j]] })
		fmt.Fprintln(os.Stderr, "per-benchmark ratios, worst first:")
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "  %-58s %+.1f%%  (old %.0f ns/op, new %.0f ns/op)\n",
				name, (ratios[name]-1)*100, oldRes[name], newRes[name])
		}
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — geomean regression %.1f%% exceeds %.0f%%\n",
			(geomean-1)*100, *maxRegress*100)
		os.Exit(1)
	}
	fmt.Println("benchgate: OK")
}
