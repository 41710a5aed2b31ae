// Package exp contains one runner per figure/table of the paper's
// evaluation. Each runner produces the measured series, renders them, and
// evaluates the shape checks that define reproduction success (who wins,
// where the crossovers fall, how the banks balance) — absolute numbers
// are machine-model-dependent and recorded in EXPERIMENTS "Summary".
package exp

import (
	"fmt"

	"codeletfft/internal/c64"
	"codeletfft/internal/core"
	"codeletfft/internal/report"
	"codeletfft/internal/sim"
)

// Config scopes an experiment run.
type Config struct {
	// Machine is the architecture model (Default C64 unless overridden).
	Machine c64.Config
	// Quick shrinks problem sizes so the full suite runs in seconds —
	// used by tests and benchmarks; cmd/figures uses the full sizes.
	Quick bool
	// Seed selects inputs and randomized orders.
	Seed int64
}

// NewConfig returns the default full-size configuration.
func NewConfig() Config {
	return Config{Machine: c64.Default(), Seed: 1}
}

// Check is one shape assertion on an experiment's outcome.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Result is one regenerated figure or table.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []report.Series
	Table  *report.Table
	Notes  []string
	Checks []Check
}

// Passed reports whether every shape check succeeded.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

func (r *Result) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// All runs every experiment in paper order.
func All(cfg Config) ([]*Result, error) {
	runners := []func(Config) (*Result, error){
		Fig1CoarseTrace,
		Fig2GuidedTrace,
		Fig6HashTrace,
		Fig7CodeletSize,
		Fig8InputSizes,
		Fig9ThreadScaling,
		TablePeak,
		OnChipTaskSize,
	}
	out := make([]*Result, 0, len(runners))
	for _, run := range runners {
		r, err := run(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// traceN picks the transform size for the bank-trace figures.
func (c Config) traceN() int {
	if c.Quick {
		return 1 << 14
	}
	return 1 << 20
}

// runTrace executes one variant with bank tracing enabled.
func runTrace(cfg Config, v core.Variant, d string) (*core.Result, error) {
	opts := core.NewOptions(cfg.traceN(), v)
	opts.Machine = cfg.Machine
	opts.SkipNumerics = true
	opts.Seed = cfg.Seed
	opts.TraceBin = sim.Time(20000)
	if !cfg.Quick {
		opts.TraceBin = 100000
	}
	res, err := core.Run(opts)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", d, err)
	}
	return res, nil
}

// traceResult converts a bank trace into per-bank rate series, rebinned
// to a fixed number of windows, as the paper's Figures 1/2/6 plot them.
func traceResult(id, title string, res *core.Result) *Result {
	r := &Result{
		ID:     id,
		Title:  title,
		XLabel: "time window",
		YLabel: "accesses/window",
	}
	tr := res.Trace.Rebin(48)
	for b, series := range tr.Series() {
		s := report.Series{Name: fmt.Sprintf("bank %d", b)}
		for w, v := range series {
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, float64(v))
		}
		r.Series = append(r.Series, s)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%s; %.3f GFLOPS; whole-run bank skew %.2f",
		res.String(), res.GFLOPS, res.BankSkew()))
	return r
}

// Fig1CoarseTrace reproduces Figure 1: per-bank access rates over time
// for the coarse-grain algorithm. The paper observes bank 0 at roughly 3x
// the other banks' rate for the first ~2/3 of execution, balancing only
// in the final stage.
func Fig1CoarseTrace(cfg Config) (*Result, error) {
	res, err := runTrace(cfg, core.Coarse, "fig1")
	if err != nil {
		return nil, err
	}
	r := traceResult("fig1", "Fig. 1 — bank access rates, coarse-grain", res)

	// Skip the first 15% (bit-reversal pass, which is balanced) when
	// measuring the early-stage skew.
	early := res.Trace.SkewSummary(0.15, 0.6)
	late := res.Trace.SkewSummary(0.9, 1.0)
	r.check("early bank-0 skew ≈ 3x", early > 2.2 && early < 4.2,
		"early-window skew %.2f (paper: ~3)", early)
	r.check("late windows more balanced", late < early,
		"late skew %.2f < early skew %.2f", late, early)
	r.Notes = append(r.Notes, fmt.Sprintf("early skew %.2f, late skew %.2f", early, late))
	return r, nil
}

// Fig2GuidedTrace reproduces Figure 2: access rates under the guided
// fine-grain algorithm. The paper observes bank 0's rate decreasing and
// banks 1-3 rising from around the middle of the run as late-stage
// (balanced) codelets mix in.
func Fig2GuidedTrace(cfg Config) (*Result, error) {
	res, err := runTrace(cfg, core.FineGuided, "fig2")
	if err != nil {
		return nil, err
	}
	r := traceResult("fig2", "Fig. 2 — bank access rates, guided fine-grain", res)

	firstHalf := res.Trace.SkewSummary(0.05, 0.5)
	lastQuarter := res.Trace.SkewSummary(0.75, 1.0)
	r.check("bank 0 share declines late in the run", lastQuarter < firstHalf,
		"skew falls from %.2f (first half) to %.2f (last quarter)", firstHalf, lastQuarter)
	return r, nil
}

// Fig6HashTrace reproduces Figure 6: access rates with bit-reversal-
// hashed twiddle addresses — all four banks uniform throughout.
func Fig6HashTrace(cfg Config) (*Result, error) {
	res, err := runTrace(cfg, core.FineHash, "fig6")
	if err != nil {
		return nil, err
	}
	r := traceResult("fig6", "Fig. 6 — bank access rates, fine-grain + hashed twiddles", res)

	skew := res.BankSkew()
	r.check("banks uniform under hashing", skew < 1.1,
		"whole-run skew %.3f (paper: uniform)", skew)
	overall := res.Trace.SkewSummary(0.05, 0.95)
	r.check("rates uniform over time", overall < 1.25,
		"windowed skew %.3f", overall)
	return r, nil
}

// Fig7CodeletSize reproduces Figure 7: best fine-grain performance as a
// function of codelet size. 64-point codelets win: smaller sizes pay more
// stages (more off-chip traffic), larger ones exceed the scratchpad and
// spill.
func Fig7CodeletSize(cfg Config) (*Result, error) {
	// Sizes are chosen so that 64- and 128-point plans have the same
	// stage count; otherwise the scratchpad-spill penalty of P=128 can be
	// masked by saving a whole stage of traffic.
	n := 1 << 18
	if cfg.Quick {
		n = 1 << 12
	}
	sizes := []int{4, 8, 16, 32, 64, 128, 256}
	r := &Result{
		ID:     "fig7",
		Title:  "Fig. 7 — performance vs codelet size (fine-grain)",
		XLabel: "points per codelet",
		YLabel: "GFLOPS",
	}
	s := report.Series{Name: "fine best"}
	best, bestSize := 0.0, 0
	for _, p := range sizes {
		opts := core.NewOptions(n, core.Fine)
		opts.Machine = cfg.Machine
		opts.TaskSize = p
		opts.SkipNumerics = true
		opts.Seed = cfg.Seed
		res, err := core.Run(opts)
		if err != nil {
			return nil, fmt.Errorf("exp: fig7 P=%d: %w", p, err)
		}
		s.X = append(s.X, float64(p))
		s.Y = append(s.Y, res.GFLOPS)
		if res.GFLOPS > best {
			best, bestSize = res.GFLOPS, p
		}
	}
	r.Series = []report.Series{s}
	r.check("64-point codelets perform best", bestSize == 64,
		"best size %d at %.3f GFLOPS (paper: 64)", bestSize, best)
	r.check("128-point codelets regress (scratchpad spill)",
		s.Y[5] < s.Y[4], "P=128 %.3f < P=64 %.3f", s.Y[5], s.Y[4])
	r.check("small codelets regress (more stages, more traffic)",
		s.Y[0] < s.Y[4], "P=4 %.3f < P=64 %.3f", s.Y[0], s.Y[4])
	return r, nil
}

// fig8Sizes returns the swept transform sizes.
func (c Config) fig8Sizes() []int {
	if c.Quick {
		return []int{1 << 13, 1 << 14, 1 << 15, 1 << 16}
	}
	out := make([]int, 0, 8)
	for lg := 15; lg <= 22; lg++ {
		out = append(out, 1<<lg)
	}
	return out
}

// sixResults runs the paper's six reported result types for one size and
// thread count: coarse, coarse hash, fine worst, fine best, fine hash,
// fine guided.
func sixResults(cfg Config, n, threads int) (map[string]*core.Result, error) {
	base := core.Options{
		N: n, Threads: threads, Machine: cfg.Machine, Seed: cfg.Seed,
		SkipNumerics: true, SharedCounters: true, TaskSize: 64,
	}
	out := make(map[string]*core.Result, 6)
	run := func(name string, v core.Variant) error {
		opts := base
		opts.Variant = v
		res, err := core.Run(opts)
		if err != nil {
			return fmt.Errorf("exp: %s N=%d: %w", name, n, err)
		}
		out[name] = res
		return nil
	}
	if err := run("coarse", core.Coarse); err != nil {
		return nil, err
	}
	if err := run("coarse hash", core.CoarseHash); err != nil {
		return nil, err
	}
	if err := run("fine hash", core.FineHash); err != nil {
		return nil, err
	}
	if err := run("fine guided", core.FineGuided); err != nil {
		return nil, err
	}
	configs := core.DefaultFineConfigs()
	if cfg.Quick {
		configs = configs[:3]
	}
	bw, err := core.RunFineBestWorst(base, configs)
	if err != nil {
		return nil, err
	}
	out["fine best"] = bw.Best
	out["fine worst"] = bw.Worst
	return out, nil
}

var sixNames = []string{"coarse", "coarse hash", "fine worst", "fine best", "fine hash", "fine guided"}

// Fig8InputSizes reproduces Figure 8: GFLOPS of the six result types as
// the input size grows. See EXPERIMENTS "Analysis" for the discussion of
// which of the paper's orderings a work-conserving port model can and
// cannot reproduce.
func Fig8InputSizes(cfg Config) (*Result, error) {
	r := &Result{
		ID:     "fig8",
		Title:  "Fig. 8 — performance vs input size, 156 threads",
		XLabel: "log2(N)",
		YLabel: "GFLOPS",
	}
	series := make(map[string]*report.Series, 6)
	for _, name := range sixNames {
		series[name] = &report.Series{Name: name}
	}
	var firstRatio, lastRatio float64
	sizes := cfg.fig8Sizes()
	for _, n := range sizes {
		six, err := sixResults(cfg, n, 0)
		if err != nil {
			return nil, err
		}
		lg := float64(log2(n))
		for _, name := range sixNames {
			series[name].X = append(series[name].X, lg)
			series[name].Y = append(series[name].Y, six[name].GFLOPS)
		}
		ratio := six["fine hash"].GFLOPS / six["fine guided"].GFLOPS
		if n == sizes[0] {
			firstRatio = ratio
		}
		lastRatio = ratio
	}
	for _, name := range sixNames {
		r.Series = append(r.Series, *series[name])
	}

	atAll := func(pred func(i int) bool) bool {
		for i := range sizes {
			if !pred(i) {
				return false
			}
		}
		return true
	}
	get := func(name string, i int) float64 { return series[name].Y[i] }

	r.check("fine best ≥ fine worst everywhere",
		atAll(func(i int) bool { return get("fine best", i) >= get("fine worst", i) }),
		"ensemble spread present (paper: fine fluctuates with initial order)")
	r.check("fine hash beats coarse at small sizes",
		get("fine hash", 0) > get("coarse", 0),
		"hashing removes the bank-0 bottleneck while its per-bit cost is low: %.3f vs %.3f at 2^%.0f",
		get("fine hash", 0), get("coarse", 0), series["coarse"].X[0])
	r.Notes = append(r.Notes, fmt.Sprintf(
		"fine hash / fine guided falls from %.3f to %.3f across the sweep "+
			"(the paper's crossover: hash wins small, guided wins large)",
		firstRatio, lastRatio))
	r.check("fine guided competitive with fine worst everywhere",
		atAll(func(i int) bool { return get("fine guided", i) >= 0.95*get("fine worst", i) }),
		"guided order at least matches the bad orders")
	if !cfg.Quick {
		r.check("fine hash advantage over guided shrinks with N",
			lastRatio < firstRatio,
			"fine hash / fine guided: %.3f at smallest size → %.3f at largest (paper: crossover)",
			firstRatio, lastRatio)
	} else {
		_ = firstRatio
		_ = lastRatio
	}
	return r, nil
}

// Fig9ThreadScaling reproduces Figure 9: GFLOPS of the six result types
// at N=2^15 as the thread count grows from 20 to 156.
func Fig9ThreadScaling(cfg Config) (*Result, error) {
	n := 1 << 15
	threads := []int{20, 40, 60, 80, 100, 120, 140, 156}
	if cfg.Quick {
		n = 1 << 13
		threads = []int{20, 80, 156}
	}
	r := &Result{
		ID:     "fig9",
		Title:  fmt.Sprintf("Fig. 9 — performance vs thread count, N=2^%d", log2(n)),
		XLabel: "thread units",
		YLabel: "GFLOPS",
	}
	series := make(map[string]*report.Series, 6)
	for _, name := range sixNames {
		series[name] = &report.Series{Name: name}
	}
	for _, th := range threads {
		six, err := sixResults(cfg, n, th)
		if err != nil {
			return nil, err
		}
		for _, name := range sixNames {
			series[name].X = append(series[name].X, float64(th))
			series[name].Y = append(series[name].Y, six[name].GFLOPS)
		}
	}
	for _, name := range sixNames {
		r.Series = append(r.Series, *series[name])
	}

	last := len(threads) - 1
	g := series["fine guided"].Y
	r.check("guided scales with thread count",
		g[last] > 1.5*g[0],
		"%.3f GFLOPS at %d TUs → %.3f at %d TUs", g[0], threads[0], g[last], threads[last])
	h := series["fine hash"].Y
	c := series["coarse"].Y
	r.check("fine hash above coarse at full thread count",
		h[last] > c[last], "%.3f vs %.3f at %d TUs", h[last], c[last], threads[last])
	return r, nil
}

// TablePeak reproduces the theoretical-peak analysis (equations 1-4):
// 10 GFLOPS for DRAM-resident 64-point-task FFT at 16 GB/s, independent
// of N, and lower ceilings for smaller tasks.
func TablePeak(cfg Config) (*Result, error) {
	r := &Result{
		ID:    "peak",
		Title: "Eq. 1-4 — theoretical peak by task size",
	}
	tb := &report.Table{Headers: []string{"task size", "bytes/task", "peak GFLOPS"}}
	for _, p := range []int{8, 16, 32, 64, 128} {
		tb.AddRow(p, core.TaskBytes(p), core.TheoreticalPeakGFLOPS(cfg.Machine, p))
	}
	r.Table = tb
	peak64 := core.TheoreticalPeakGFLOPS(cfg.Machine, 64)
	r.check("64-point peak ≈ 10 GFLOPS (eq. 4)",
		peak64 > 9.9 && peak64 < 10.2, "peak = %.3f GFLOPS", peak64)
	r.check("8-point peak below 64-point peak",
		core.TheoreticalPeakGFLOPS(cfg.Machine, 8) < peak64,
		"larger tasks amortize twiddle traffic")
	return r, nil
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
