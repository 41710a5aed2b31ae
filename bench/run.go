package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"codeletfft/internal/tune"
)

// The timed phase is split into rounds; each round calibrates, then
// runs ops. The round count follows the op's length — about one op per
// round, so that op_rel_p50 rests on as many op-to-calibration
// ratios as the run can hold — within these limits.
const (
	minRounds = 24
	maxRounds = 96
)

// Which calibration kernel normalises a workload.
const (
	calibL2 = iota
	calibMem
)

// workloads is the benchmark's fixed workload list, in the order of
// BENCHMARK.json.
var workloads = []workloadDef{
	{
		name:  "batch_resident",
		why:   "every codelet family and facade surface with at most 2 MiB live per step: codelet, executor and plan-cache cost do all the work",
		sloMs: 150, calib: calibL2, setups: 7, clients: 1, points: batchPoints(),
		new: func(string) workload { return &batchResident{} },
	},
	{
		name:  "large_pow2",
		why:   "one 16 MiB power-of-two array against a 2 MiB L2: cost is full-array sweeps, not butterflies; cache-blocked schedules must show here",
		sloMs: 180, calib: calibMem, setups: 3, clients: 1, points: 2 * largeN,
		new: newLargePow2,
	},
	{
		name:  "large_anyn",
		why:   "same executor and sizes as large_pow2 on the scalar self-sorting and Bluestein families; a pow2-only change must leave it flat",
		sloMs: 1000, calib: calibMem, setups: 3, clients: 1, points: largePoints(largeAnyNSizes),
		new: newLargeAnyN,
	},
	{
		name:  "serve_mixed",
		why:   "the daemon path over loopback TCP: HTTP, frame codec, admission, 2 ms window, plan cache, default-worker engine; two closed-loop clients",
		sloMs: 110, calib: calibMem, setups: 3, clients: serveClients, points: servePoints(),
		new: newServeMixed,
	},
	{
		name:  "cluster_w4",
		why:   "coordinator, session codec, peer exchange and four shard engines in one process: what exceeds local compute is wire, copies, orchestration",
		sloMs: 450, calib: calibMem, setups: 7, clients: 1, points: 2 * largeN,
		new: newClusterW4,
	},
	{
		name:  "ooc_spill",
		why:   "the four-step maths through segment files, CRCs and the prefetch pipeline under a 4 MiB budget: the workload where peak RSS is the point",
		sloMs: 570, calib: calibL2, setups: 7, clients: 1, points: 2 * largeN,
		new: newOOCSpill,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one benchmark run.
type runConfig struct {
	def     *workloadDef
	seed    uint64
	seconds float64
	trace   bool
	// setups and rounds override the workload's k and minRounds; the
	// smoke tests use them to stay short. 0 keeps the default.
	setups, rounds int
	outDir         string
	fp             fingerprint
	// hook, when set, sees the workload before its first set-up; the
	// failure-accounting tests use it to plant a corruption.
	hook func(workload)
}

// runResult is what a run reports: the result line's counts and the
// metrics of the mode it ran in.
type runResult struct {
	attempted, failed, wrong int
	firstErr                 error
	metrics                  ledger
	defs                     []metricDef
	// info holds numbers an untraced run prints beside the contract's
	// metrics; they are not part of the result line.
	info []infoMetric
}

type infoMetric struct {
	name, unit string
	value      float64
}

func (r *runResult) correct() bool { return r.wrong == 0 }

// phase is the record of one timed phase.
type phase struct {
	opNs    [][]float64  // per round, every client's op times
	traced  []bool       // per round
	calibNs [2][]float64 // per kernel and round, one triad pass

	attempted, failed, wrong, sloOK int
	firstErr                        error

	cpuNs      float64 // process CPU over the op parts of all rounds, verification excluded
	allocBytes uint64
}

// opsOf returns the op times of the rounds whose traced flag equals
// traced.
func (p *phase) opsOf(traced bool) []float64 {
	var out []float64
	for r, ops := range p.opNs {
		if p.traced[r] == traced {
			out = append(out, ops...)
		}
	}
	return out
}

func (p *phase) record(x *opCtx, sloMs float64) {
	p.attempted++
	switch {
	case x.err != nil:
		p.failed++
		if p.firstErr == nil {
			p.firstErr = x.err
		}
	case x.wrong != nil:
		p.wrong++
		if p.firstErr == nil {
			p.firstErr = x.wrong
		}
	case float64(x.elapsed)/1e6 <= sloMs:
		p.sloOK++
	}
}

// oneOp runs and accounts a single op, with its root span.
func oneOp(w workload, x *opCtx, id int, check bool, tr *tracer) time.Duration {
	t0 := time.Now()
	x.reset(id, check, tr)
	root := x.open("op", catOp, t0)
	w.op(x)
	t1 := time.Now()
	x.shut(root, t1)
	return t1.Sub(t0)
}

// measure runs the closed loop for about seconds, split into rounds: a
// round times both calibration triads for a tenth of its budget, then
// every client runs ops until the round's time is up (at least one, the
// first of which also checks forward spectra). With a tracer, odd
// rounds are traced and even rounds are not, so the two halves see the
// same machine.
func measure(w workload, def *workloadDef, cals [2]*calib, seconds float64, rounds int, tr *tracer) *phase {
	p := &phase{opNs: make([][]float64, rounds), traced: make([]bool, rounds)}
	for k := range p.calibNs {
		p.calibNs[k] = make([]float64, rounds)
	}
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	nextID := 0
	for r := 0; r < rounds; r++ {
		budget := max(0, time.Until(deadline)) / time.Duration(rounds-r)
		for k, cal := range cals {
			p.calibNs[k][r] = cal.run(budget / 20)
		}
		roundTracer := tr
		if r%2 == 0 {
			roundTracer = nil
		}
		p.traced[r] = roundTracer != nil
		opStart := time.Now()
		roundEnd := opStart.Add(budget * 9 / 10)
		cpu0 := processCPU()
		var verify time.Duration
		var wg sync.WaitGroup
		for c := 0; c < def.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				x := &opCtx{client: c}
				for first := true; ; first = false {
					mu.Lock()
					id := nextID
					nextID++
					mu.Unlock()
					wall := oneOp(w, x, id, first, roundTracer)
					mu.Lock()
					p.record(x, def.sloMs)
					if x.err == nil {
						p.opNs[r] = append(p.opNs[r], float64(x.elapsed))
					}
					verify += x.verify
					mu.Unlock()
					if time.Now().Add(wall).After(roundEnd) {
						return
					}
				}
			}(c)
		}
		wg.Wait()
		p.cpuNs += processCPU() - cpu0 - float64(verify)
	}
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.allocBytes = after.TotalAlloc - before.TotalAlloc
	}
	return p
}

// processCPU is the user+system CPU time of the process in
// nanoseconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// coldSetups runs k cold set-ups, each followed by one verified op per
// client, and returns their times in seconds and the wall time of the
// last op. The workload is left set up.
//
// The collector is off inside a set-up and runs between set-ups: what a
// set-up allocates is then resident in full, whatever the timing of a
// concurrent collection would have been, so peak_rss_mib repeats.
func coldSetups(w workload, cfg runConfig, k int) (times []float64, opWall time.Duration, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < k; i++ {
		w.close()
		tune.Reset()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		if err := w.prepare(); err != nil {
			return nil, 0, fmt.Errorf("building references: %w", err)
		}
		runtime.GC()
		for c := 0; c < cfg.def.clients; c++ {
			x := &opCtx{client: c}
			opWall = oneOp(w, x, -1, true, nil)
			if x.err != nil {
				return nil, 0, fmt.Errorf("first op: %w", x.err)
			}
			if x.wrong != nil {
				return nil, 0, fmt.Errorf("first op: %w", x.wrong)
			}
			d += x.elapsed
		}
		times = append(times, d.Seconds())
	}
	return times, opWall, nil
}

// run executes one benchmark run: cold set-ups, the timed phase, and in
// trace mode the span file and the layer probes.
func run(cfg runConfig) (*runResult, error) {
	def := cfg.def
	// The calibration arrays come first, so that where they land does
	// not depend on what the set-ups left behind.
	cals := [2]*calib{calibL2: newCalib(calibL2Elems), calibMem: newCalib(calibMemElems)}
	w := def.new(cfg.outDir)
	defer w.close()
	if cfg.hook != nil {
		cfg.hook(w)
	}
	k := def.setups
	if cfg.setups > 0 {
		k = cfg.setups
	}
	if cfg.trace {
		k = 1
	}
	setupS, opWall, err := coldSetups(w, cfg, k)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rounds := cfg.rounds
	if rounds <= 0 {
		// The first op ran cold, so it overstates the op: rounds hold one
		// op or a few.
		rounds = max(minRounds, min(maxRounds, int(cfg.seconds/opWall.Seconds())))
	}

	res := &runResult{metrics: ledger{}}
	if !cfg.trace {
		p := measure(w, def, cals, cfg.seconds, rounds, nil)
		res.fill(p)
		res.defs = endToEnd
		res.metrics.set("setup_s", median(setupS))
		res.metrics.set("op_rel_p50", pseudoMedian(roundRatios(p.opNs, p.calibNs[def.calib])))
		res.metrics.set("slo_ok_share", float64(p.sloOK)/float64(p.attempted))
		res.metrics.set("peak_rss_mib", peakRSSMiB())
		// Beside the contract's metrics: the raw time and the ratio to
		// each calibration kernel, which is how the choice of kernel per
		// workload was made and can be checked again.
		res.info = []infoMetric{
			{"raw.op_ms_p50", "ms", median(p.opsOf(false)) / 1e6},
			{"raw.op_rel_l2", "xcalib", pseudoMedian(roundRatios(p.opNs, p.calibNs[calibL2]))},
			{"raw.op_rel_mem", "xcalib", pseudoMedian(roundRatios(p.opNs, p.calibNs[calibMem]))},
			{"raw.ops", "count", float64(p.attempted)},
			{"raw.rounds", "count", float64(rounds)},
		}
		return res, nil
	}

	tr := newTracer()
	p := measure(w, def, cals, cfg.seconds, rounds, tr)
	res.fill(p)
	res.defs = perLayer
	tracedLedger(res.metrics, def, p, tr)
	w.close()
	if err := runProbes(res.metrics, cfg); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := writeTrace(cfg, tr, res.metrics); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *runResult) fill(p *phase) {
	r.attempted, r.failed, r.wrong, r.firstErr = p.attempted, p.failed+p.wrong, p.wrong, p.firstErr
}

// tracedLedger derives the workload's own per-layer numbers from a
// traced phase.
func tracedLedger(l ledger, def *workloadDef, p *phase, tr *tracer) {
	plain, traced := p.opsOf(false), p.opsOf(true)
	l.set("trace.overhead_share", (median(traced)-median(plain))/median(plain))
	l.set("trace.spans_per_op", float64(len(tr.spans))/float64(max(1, len(traced))))
	l.set("raw.op_ms_p50", median(plain)/1e6)
	l.set("raw.op_ms_p95", quantile(plain, 0.95)/1e6)
	ops := float64(len(plain) + len(traced))
	l.set("raw.mpts_per_s", def.points*float64(def.clients)*1e3/median(plain))
	l.set("raw.cpu_ms_per_op", p.cpuNs/1e6/ops)
	l.set("raw.ops", ops)
	l.set("raw.rounds", float64(len(p.opNs)))
	cal := p.calibNs[def.calib]
	l.set("calib.spread_p90_p10", (quantile(cal, 0.9)-quantile(cal, 0.1))/median(cal))
	l.set("facade.alloc_bytes_per_op", float64(p.allocBytes)/ops)

	var clock float64
	for _, d := range traced {
		clock += d
	}
	self := selfByCat(tr.spans)
	for _, cat := range shareCats {
		l.set("share."+cat, float64(self[cat])/clock)
	}
	l.set("share.other", float64(self[catOp])/clock)
}
