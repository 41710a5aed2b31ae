package core

import (
	"math"
	"testing"

	"codeletfft/internal/c64"
	"codeletfft/internal/codelet"
)

func runChecked(t *testing.T, opts Options) *Result {
	t.Helper()
	opts.Check = true
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllVariantsProduceCorrectFFT(t *testing.T) {
	for _, v := range Variants() {
		for _, shape := range []struct{ n, p int }{{1 << 12, 64}, {1 << 13, 64}, {1 << 12, 8}} {
			opts := NewOptions(shape.n, v)
			opts.TaskSize = shape.p
			res := runChecked(t, opts)
			if !res.Checked || res.MaxError > 1e-8 {
				t.Fatalf("%v N=%d P=%d: max error %g", v, shape.n, shape.p, res.MaxError)
			}
			if res.Cycles <= 0 {
				t.Fatalf("%v: nonpositive makespan", v)
			}
		}
	}
}

func TestVariantsAgreeNumerically(t *testing.T) {
	// Same seed → identical outputs across all scheduling variants
	// (determinacy of well-behaved codelet graphs, section III-C3).
	base := NewOptions(1<<12, Coarse)
	ref := runChecked(t, base)
	for _, v := range Variants()[1:] {
		opts := NewOptions(1<<12, v)
		res := runChecked(t, opts)
		for i := range res.Output {
			if res.Output[i] != ref.Output[i] {
				d := res.Output[i] - ref.Output[i]
				if math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
					t.Fatalf("%v output diverges from coarse at %d", v, i)
				}
			}
		}
	}
}

func TestCoarseBankSkew(t *testing.T) {
	// The motivating observation: coarse-grain concentrates twiddle
	// traffic on bank 0, so its whole-run byte skew is well above 1,
	// while the hashed variant is balanced.
	coarse, err := Run(Options{N: 1 << 15, Variant: Coarse, Machine: defaultMachine(), SkipNumerics: true, SharedCounters: true})
	if err != nil {
		t.Fatal(err)
	}
	if skew := coarse.BankSkew(); skew < 1.3 {
		t.Fatalf("coarse bank skew %.2f, expected pronounced imbalance", skew)
	}
	hash, err := Run(Options{N: 1 << 15, Variant: CoarseHash, Machine: defaultMachine(), SkipNumerics: true, SharedCounters: true})
	if err != nil {
		t.Fatal(err)
	}
	if skew := hash.BankSkew(); skew > 1.15 {
		t.Fatalf("hashed bank skew %.2f, expected balance", skew)
	}
}

func TestVariantOrdering(t *testing.T) {
	// The orderings this model supports (see EXPERIMENTS "Analysis" for the
	// discussion of how they compare to the paper's):
	//   guided ≈ fine best > fine worst,
	//   fine hash > coarse (hash removes the bank-0 bottleneck),
	//   guided within a few percent of coarse (both near the
	//   work-conserving port bound).
	coarse := quickRun(t, 1<<15, Coarse, OrderNatural, codelet.FIFO)
	guided := quickRun(t, 1<<15, FineGuided, OrderNatural, codelet.LIFO)
	fineLIFO := quickRun(t, 1<<15, Fine, OrderNatural, codelet.LIFO)
	fineFIFO := quickRun(t, 1<<18, Fine, OrderNatural, codelet.FIFO)
	fineLIFO18 := quickRun(t, 1<<18, Fine, OrderNatural, codelet.LIFO)
	hash := quickRun(t, 1<<15, FineHash, OrderNatural, codelet.LIFO)

	if hash.GFLOPS <= coarse.GFLOPS {
		t.Fatalf("fine hash (%.3f) should beat coarse (%.3f)", hash.GFLOPS, coarse.GFLOPS)
	}
	if fineLIFO18.GFLOPS <= fineFIFO.GFLOPS {
		t.Fatalf("LIFO mixing (%.3f) should beat FIFO breadth-first (%.3f) at 2^18",
			fineLIFO18.GFLOPS, fineFIFO.GFLOPS)
	}
	if guided.GFLOPS < 0.95*fineLIFO.GFLOPS {
		t.Fatalf("guided (%.3f) should be at least on par with fine LIFO (%.3f)",
			guided.GFLOPS, fineLIFO.GFLOPS)
	}
	if guided.GFLOPS < 0.9*coarse.GFLOPS {
		t.Fatalf("guided (%.3f) should be within 10%% of coarse (%.3f)",
			guided.GFLOPS, coarse.GFLOPS)
	}
}

func quickRun(t *testing.T, n int, v Variant, o Order, d codelet.Discipline) *Result {
	t.Helper()
	opts := Options{N: n, Variant: v, Order: o, Discipline: d,
		Machine: defaultMachine(), SkipNumerics: true, SharedCounters: true}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGFLOPSBelowTheoreticalPeak(t *testing.T) {
	peak := TheoreticalPeakGFLOPS(defaultMachine(), 64)
	for _, v := range Variants() {
		res := quickRun(t, 1<<15, v, OrderNatural, codelet.LIFO)
		if res.GFLOPS >= peak {
			t.Fatalf("%v achieved %.2f GFLOPS above the %.2f peak", v, res.GFLOPS, peak)
		}
		if res.GFLOPS <= 0 {
			t.Fatalf("%v: nonpositive GFLOPS", v)
		}
	}
}

func TestTheoreticalPeak(t *testing.T) {
	// Equation (4): ~10 GFLOPS for 64-point tasks at 16 GB/s.
	peak := TheoreticalPeakGFLOPS(defaultMachine(), 64)
	if peak < 10.0 || peak > 10.1 {
		t.Fatalf("peak = %.3f GFLOPS, want ≈10.05 (paper's eq. 4)", peak)
	}
	// Larger tasks have higher ceilings (less twiddle traffic per flop).
	if TheoreticalPeakGFLOPS(defaultMachine(), 8) >= peak {
		t.Fatal("8-point ceiling should be below the 64-point ceiling")
	}
}

func TestDeterminism(t *testing.T) {
	a := quickRun(t, 1<<13, FineGuided, OrderNatural, codelet.LIFO)
	b := quickRun(t, 1<<13, FineGuided, OrderNatural, codelet.LIFO)
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestSharedVsPerCodeletCountersSameResult(t *testing.T) {
	// Counter sharing changes overhead, not which codelets fire: both
	// modes complete all codelets and produce correct numerics.
	for _, shared := range []bool{true, false} {
		opts := NewOptions(1<<12, Fine)
		opts.SharedCounters = shared
		res := runChecked(t, opts)
		want := opts.N / 64 * res.Stages
		if res.Codelets != want {
			t.Fatalf("shared=%v: %d codelets, want %d", shared, res.Codelets, want)
		}
	}
}

func TestSharedCountersReduceUpdates(t *testing.T) {
	run := func(shared bool) *Result {
		opts := Options{N: 1 << 13, Variant: Fine, Discipline: codelet.LIFO,
			Machine: defaultMachine(), SkipNumerics: true, SharedCounters: shared}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shared := run(true)
	perChild := run(false)
	if shared.Runtime.CounterUpdates*10 > perChild.Runtime.CounterUpdates {
		t.Fatalf("shared counters should cut updates ~64x: %d vs %d",
			shared.Runtime.CounterUpdates, perChild.Runtime.CounterUpdates)
	}
}

func TestTraceCollection(t *testing.T) {
	opts := Options{N: 1 << 13, Variant: Coarse, Machine: defaultMachine(),
		SkipNumerics: true, SharedCounters: true, TraceBin: 10000}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Windows() == 0 {
		t.Fatal("trace not collected")
	}
	// Trace totals match machine accounting.
	tot := res.Trace.Totals()
	for b, acc := range res.BankAccesses {
		if tot[b] != acc {
			t.Fatalf("bank %d: trace %d vs machine %d accesses", b, tot[b], acc)
		}
	}
}

func TestThreadScalingMonotoneish(t *testing.T) {
	// More TUs should never make guided dramatically slower; 8→64
	// threads must speed it up substantially before saturation.
	slow := runThreads(t, 8)
	fast := runThreads(t, 64)
	if fast.GFLOPS < 2*slow.GFLOPS {
		t.Fatalf("64 TUs (%.3f) should be ≥2x of 8 TUs (%.3f)", fast.GFLOPS, slow.GFLOPS)
	}
}

func runThreads(t *testing.T, threads int) *Result {
	t.Helper()
	opts := Options{N: 1 << 13, Variant: FineGuided, Threads: threads,
		Machine: defaultMachine(), SkipNumerics: true, SharedCounters: true}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmallPlansDegenerate(t *testing.T) {
	// N=4096 = 64²: two stages → guided has no early/late split and must
	// still be correct.
	res := runChecked(t, NewOptions(1<<12, FineGuided))
	if res.Stages != 2 {
		t.Fatalf("stages = %d, want 2", res.Stages)
	}
	// N=64: single stage, single codelet per stage.
	res = runChecked(t, NewOptions(64, FineGuided))
	if res.Codelets != 1 {
		t.Fatalf("codelets = %d, want 1", res.Codelets)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Options{N: 0, Machine: defaultMachine()}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Run(Options{N: 100, Machine: defaultMachine()}); err == nil {
		t.Fatal("non-power-of-two N accepted")
	}
	if _, err := Run(Options{N: 1 << 12, Threads: 1000, Machine: defaultMachine()}); err == nil {
		t.Fatal("threads beyond TUs accepted")
	}
	if _, err := Run(Options{N: 1 << 12, SkipNumerics: true, Check: true, Machine: defaultMachine()}); err == nil {
		t.Fatal("Check+SkipNumerics accepted")
	}
}

func TestRunFineBestWorst(t *testing.T) {
	base := Options{N: 1 << 13, Machine: defaultMachine(), SkipNumerics: true, SharedCounters: true}
	bw, err := RunFineBestWorst(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bw.Best.GFLOPS < bw.Worst.GFLOPS {
		t.Fatal("best slower than worst")
	}
	if bw.Best.GFLOPS == bw.Worst.GFLOPS {
		t.Fatal("ensemble shows no spread; initial order should matter (paper: fine fluctuates a lot)")
	}
}

func defaultMachine() c64.Config { return c64.Default() }
