// Command bench is the repository's benchmark: six closed-loop
// workloads with verified outputs, timing normalised by an interleaved
// calibration kernel, and a traced per-layer ledger. See README.md.
//
//	bench -workload <name|all> -seed <n> [-seconds <s>] [-trace 1]
//	bench -aa <k> [-workload <name|all>]
//	bench -spec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"codeletfft/internal/tune"
)

// runSeconds is how long one run measures when the caller does not
// say; BENCHMARK.json carries the same number.
const runSeconds = 12

// maxSpansWritten caps the spans stored in a trace file; the metrics
// use all of them.
const maxSpansWritten = 20000

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for trace files and the spill store")
		aa      = flag.Int("aa", 0, "A/A mode: two interleaved sets of this many runs per workload")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the code defines it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	switch {
	case *spec:
		os.Stdout.Write(specJSON())
	case *aa > 0:
		if err := runAA(*name, *aa, *seed, *seconds); err != nil {
			fatalf("%v", err)
		}
	case *name == "all":
		ok := true
		for _, def := range workloads {
			res, err := runChild(def.name, *seed, *seconds, *trace, os.Stdout)
			if err != nil {
				fatalf("%s: %v", def.name, err)
			}
			ok = ok && res.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		def := findWorkload(*name)
		if def == nil {
			fatalf("unknown workload %q", *name)
		}
		cfg := runConfig{def: def, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir,
			fp: readFingerprint(*outDir)}
		printFingerprint(cfg.fp)
		res, err := run(cfg)
		if err != nil {
			fatalf("%s: %v", def.name, err)
		}
		printWinners(def.name)
		printResult(def.name, res)
		if !res.correct() {
			fmt.Fprintf(os.Stderr, "bench: %s: %d wrong results, first: %v\n", def.name, res.wrong, res.firstErr)
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func printFingerprint(fp fingerprint) {
	fmt.Printf("env cpu=%q nproc=%d gomaxprocs=%d accel=%s go=%s l2=%s l3=%s spill_fs=%s commit=%s\n",
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.Acceleration, fp.GoVersion, fp.L2, fp.L3, fp.SpillFS, fp.Commit)
}

// printWinners lists the kernels the autotuner settled on in this
// process: the tuner decides by measuring, so on a noisy machine two
// runs of one workload need not run the same kernels, and a shifted
// op_rel_p50 is then the program's doing, not the benchmark's.
func printWinners(workload string) {
	winners := tune.Winners()
	keys := make([]tune.Key, 0, len(winners))
	for k := range winners {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].N != keys[b].N {
			return keys[a].N < keys[b].N
		}
		return keys[a].Workers < keys[b].Workers
	})
	fmt.Printf("%-15s tuned", workload)
	for _, k := range keys {
		fmt.Printf(" n%d/w%d=%v", k.N, k.Workers, winners[k])
	}
	fmt.Println()
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric of the run by name with its unit,
// then the result line.
func printResult(workload string, res *runResult) {
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(res.defs))}
	for _, d := range res.defs {
		v := res.metrics[d.name]
		fmt.Printf("%-15s %-36s %14.6g %s\n", workload, d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.firstErr != nil {
		fmt.Printf("%-15s first failure: %v\n", workload, res.firstErr)
	}
	if res.info != nil {
		info := ledger{}
		for _, m := range res.info {
			fmt.Printf("%-15s %-36s %14.6g %s (not gated)\n", workload, m.name, m.value, m.unit)
			info.set(m.name, m.value)
		}
		b, err := json.Marshal(map[string]ledger{"info": info})
		if err != nil {
			fatalf("encoding the result: %v", err)
		}
		fmt.Printf("%s\n", b)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Printf("%s\n", b)
}

// traceFile is the layout of <out>/<workload>.trace.json.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Fingerprint  fingerprint        `json:"fingerprint"`
	Metrics      map[string]float64 `json:"metrics"`
	SpansTotal   int                `json:"spans_total"`
	SpansWritten int                `json:"spans_written"`
	Spans        []span             `json:"spans"`
}

func writeTrace(cfg runConfig, tr *tracer, metrics ledger) error {
	spans := tr.spans[:min(len(tr.spans), maxSpansWritten)]
	b, err := json.Marshal(traceFile{
		Workload: cfg.def.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Fingerprint: cfg.fp, Metrics: metrics,
		SpansTotal: len(tr.spans), SpansWritten: len(spans), Spans: spans,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, cfg.def.name+".trace.json"), b, 0o644)
}

// specJSON renders BENCHMARK.json from the tables in the code, so the
// names a run prints and the names the contract lists cannot drift
// apart (a test compares this with the file).
func specJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(b, '\n')
}
