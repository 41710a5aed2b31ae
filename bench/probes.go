package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"codeletfft"
	"codeletfft/internal/cache"
	"codeletfft/internal/fft"
	"codeletfft/internal/host"
	"codeletfft/internal/tune"
)

// The layer probes time direct calls into each layer's public
// functions and read the public registries. They run after the traced
// workload, in the same process, and are the same whatever workload
// was named: one traced run yields one complete ledger.

// probeReps is the repetition count of a probe whose call is cheap;
// expensive calls (2^20 points and up) repeat until probeBudget is
// spent, at least probeMinReps times. The reported number is always
// the median.
const (
	probeReps    = 50
	probeMinReps = 5
	probeBudget  = 400 * time.Millisecond
)

// must unwraps a constructor result. The probes build fixed, valid
// shapes, so an error here is a bug in the benchmark, not a condition
// of the environment.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// sampleNs times f between minReps and maxReps times — past minReps it
// stops once probeBudget is spent — and returns the median in
// nanoseconds; prep, if non-nil, runs before each call, off the clock.
func sampleNs(minReps, maxReps int, prep, f func()) float64 {
	var times []float64
	start := time.Now()
	for len(times) < minReps || (len(times) < maxReps && time.Since(start) < probeBudget) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		times = append(times, float64(time.Since(t0)))
	}
	return median(times)
}

// medianNs is the median of exactly reps calls.
func medianNs(reps int, prep, f func()) float64 { return sampleNs(reps, reps, prep, f) }

// probeNs is the median time of a probe's call: probeReps calls, or for
// a big one (2^20 points and up) as many as fit the budget.
func probeNs(big bool, prep, f func()) float64 {
	if big {
		return sampleNs(probeMinReps, probeReps, prep, f)
	}
	return medianNs(probeReps, prep, f)
}

// perCallNs times a call too short to time alone: the median over
// probeReps batches of inner calls, per call.
func perCallNs(inner int, f func()) float64 {
	return medianNs(probeReps, nil, func() {
		for i := 0; i < inner; i++ {
			f()
		}
	}) / float64(inner)
}

// pow2Probe is a staged plan with its twiddles, an input and a work
// buffer restored before every timed call.
type pow2Probe struct {
	pl       *fft.Plan
	w        []complex128
	in, data []complex128
}

func newPow2Probe(r uint64, n int) *pow2Probe {
	p := &pow2Probe{pl: must(fft.NewPlan(n, min(64, n))), w: fft.Twiddles(n), in: randomComplex(newRNG(r, uint64(n)), n)}
	p.data = make([]complex128, n)
	return p
}

func (p *pow2Probe) restore() { copy(p.data, p.in) }

func (p *pow2Probe) kernelNs(k fft.Kernel, budgeted bool) float64 {
	p.restore()
	p.pl.TransformKernel(p.data, p.w, k) // lazy twiddle tables
	return probeNs(budgeted, p.restore, func() { p.pl.TransformKernel(p.data, p.w, k) })
}

func log2(n int) float64 { return math.Log2(float64(n)) }

// errUlp is the largest deviation of got from the double-double oracle
// over the given bins, in units of ε times the oracle's RMS magnitude.
func errUlp(in, got []complex128, bins []int) float64 {
	want := dftBinsExact(in, rootTable(len(in)), bins)
	var worst, sumSq float64
	for i, k := range bins {
		d := got[k] - want[i]
		worst = max(worst, math.Hypot(real(d), imag(d)))
		sumSq += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	const eps = 0x1p-52
	return worst / (eps * math.Sqrt(sumSq/float64(len(bins))))
}

func probeFFT(l ledger, seed uint64, triadMemGBs float64) {
	// Codelet families at a cache-resident size.
	small := newPow2Probe(seed, 4096)
	bfly := 4096 / 2 * log2(4096)
	for name, k := range map[string]fft.Kernel{
		"radix2": fft.KernelRadix2, "radix4": fft.KernelRadix4, "splitradix": fft.KernelSplitRadix,
		"soa2": fft.KernelSoARadix2, "soa4": fft.KernelSoARadix4,
	} {
		l.set("fft.ns_per_bfly."+name, small.kernelNs(k, false)/bfly)
	}
	small.restore()
	small.pl.TransformKernel(small.data, small.w, fft.KernelSoARadix4)
	bins := pickBins(4096, 128)
	l.set("fft.err_ulp.pow2", errUlp(small.in, small.data, bins))

	serial := host.New(host.Config{Workers: 1})
	r := newRNG(seed, 11)
	for _, m := range []struct {
		name   string
		n      int
		big    bool
		ulpKey string
	}{
		{"mixed_3072", 3072, false, "fft.err_ulp.mixed"},
		{"mixed_1000", 1000, false, ""},
		{"mixed_3x2p18", 3 << 18, true, ""},
		{"mixed_1e6", 1000000, true, ""},
	} {
		mp := must(fft.NewMixedPlan(m.n))
		in := randomComplex(r, m.n)
		data, work := make([]complex128, m.n), make([]complex128, m.n)
		prep := func() { copy(data, in) }
		f := func() { mp.TransformWith(data, work) }
		l.set("fft.ns_per_pt."+m.name, probeNs(m.big, prep, f)/float64(m.n))
		if m.ulpKey != "" {
			prep()
			f()
			l.set(m.ulpKey, errUlp(in, data, pickBins(m.n, 128)))
		}
	}
	for _, b := range []struct {
		name string
		n    int
		big  bool
	}{{"bluestein_1009", 1009, false}, {"bluestein_262147", 1<<18 + 3, true}} {
		bp := must(fft.NewBluesteinPlan(b.n))
		in := randomComplex(r, b.n)
		data := make([]complex128, b.n)
		prep := func() { copy(data, in) }
		// The serial engine path, so the embedded convolution runs the
		// kernel the facade would pick.
		f := func() { serial.BluesteinTransform(bp, data, fft.KernelSoARadix4) }
		prep()
		f()
		l.set("fft.ns_per_pt."+b.name, probeNs(b.big, prep, f)/float64(b.n))
		if b.big {
			continue
		}
		prep()
		f()
		l.set("fft.err_ulp.bluestein", errUlp(in, data, pickBins(b.n, 128)))
	}

	rp := must(fft.NewRealPlan(4096, 64))
	realIn := make([]float64, 4096)
	fillReal(r, realIn)
	spec := make([]complex128, rp.SpectrumLen())
	sc := fft.NewScratch(rp.Half)
	l.set("fft.ns_per_pt.real_4096", medianNs(probeReps, nil, func() {
		rp.TransformKernelWith(spec, realIn, fft.KernelSoARadix4, sc)
	})/4096)
	cplx := make([]complex128, 4096)
	for i, v := range realIn {
		cplx[i] = complex(v, 0)
	}
	l.set("fft.err_ulp.real", errUlp(cplx, spec, pickBins(2049, 128)))

	// The large power-of-two transform and its parts.
	big := newPow2Probe(seed, largeN)
	soa4 := big.kernelNs(fft.KernelSoARadix4, true)
	l.set("fft.ns_per_pt.soa4_2p20", soa4/largeN)
	l.set("fft.gflops.soa4_2p20", 5*largeN*log2(largeN)/soa4)
	l.set("fft.ns_per_pt.radix4_2p20", big.kernelNs(fft.KernelRadix4, true)/largeN)
	whole := probeNs(true, big.restore, func() { big.pl.TransformSoA(big.data, big.w, fft.KernelSoARadix4) })
	frame := fft.GetSoAFrame(largeN)
	packUnpack := probeNs(true, nil, func() {
		frame.PackBitrev(big.data, 0, largeN, big.pl.LogN)
		frame.Unpack(big.data, 0, largeN)
	})
	frame.Release()
	l.set("fft.pack_unpack_share.2p20", packUnpack/whole)
	// Computed traffic: every pass reads and writes each point once.
	passes := soaPasses(big.pl, fft.KernelSoARadix4)
	l.set("fft.roofline_share.soa4_2p20", passes*32*largeN/soa4/triadMemGBs)

	fs := must(fft.NewFourStep(1024, 1024))
	l.set("fft.fourstep_ns_per_pt.2p20", probeNs(true, big.restore, func() { fs.Transform(big.data) })/largeN)

	l.set("fft.plan_build_ms.pow2_2p20", medianNs(3, nil, func() {
		must(fft.NewPlan(largeN, 64)).SoATwiddles(fft.Twiddles(largeN))
	})/1e6)
	l.set("fft.plan_build_ms.mixed_1e6", medianNs(3, nil, func() { _, _ = fft.NewMixedPlan(1000000) })/1e6)
	l.set("fft.plan_build_ms.bluestein_262147", medianNs(3, nil, func() { _, _ = fft.NewBluesteinPlan(1<<18 + 3) })/1e6)

	// 2^22 does not repeat on a shared box; it stays here, informational.
	huge := newPow2Probe(seed, 1<<22)
	l.set("fft.ns_per_pt.soa4_2p22", huge.kernelNs(fft.KernelSoARadix4, true)/(1<<22))
}

// soaPasses counts the full-array sweeps of one forward SoA transform:
// pack, every stage's passes, unpack.
func soaPasses(pl *fft.Plan, k fft.Kernel) float64 {
	passes := 2
	for s := 0; s < pl.NumStages; s++ {
		passes += pl.SoAPasses(s, k)
	}
	return float64(passes)
}

// passObserver sums the engine's pass telemetry by label.
type passObserver struct {
	mu    sync.Mutex
	ns    map[string]float64
	count int
}

func (o *passObserver) ObserveBatch(int, int, time.Duration) {}

func (o *passObserver) ObservePass(pass string, d time.Duration) {
	o.mu.Lock()
	o.ns[pass] += float64(d)
	o.count++
	o.mu.Unlock()
}

func probeHost(l ledger, seed uint64) {
	serial := host.New(host.Config{Workers: 1})
	two := host.New(host.Config{Workers: 2})
	for _, s := range []struct {
		name string
		n    int
	}{{"2p14", 1 << 14}, {"2p16", 1 << 16}, {"2p20", largeN}} {
		p := newPow2Probe(seed, s.n)
		p.kernelNs(fft.KernelSoARadix4, true) // warm
		run := func(e *host.Engine) func() {
			return func() { e.TransformKernel(p.pl, p.data, p.w, fft.KernelSoARadix4) }
		}
		t1, t2 := interleavedNs(p.restore, run(serial), run(two))
		l.set("host.par_speedup_w2."+s.name, t1/t2)
	}
	mp := must(fft.NewMixedPlan(3 << 18))
	in := randomComplex(newRNG(seed, 12), 3<<18)
	data := make([]complex128, len(in))
	prep := func() { copy(data, in) }
	t1, t2 := interleavedNs(prep, func() { serial.MixedTransform(mp, data) }, func() { two.MixedTransform(mp, data) })
	l.set("host.par_speedup_w2.mixed_3x2p18", t1/t2)

	// One batched dispatch against a loop of single transforms.
	bp := newPow2Probe(seed, 4096)
	rows := randomRows(newRNG(seed, 13), 32, 4096)
	work := cloneRows(rows)
	restore := func() {
		for i := range rows {
			copy(work[i], rows[i])
		}
	}
	loop, batch := interleavedNs(restore, func() {
		for _, row := range work {
			serial.TransformKernel(bp.pl, row, bp.w, fft.KernelSoARadix4)
		}
	}, func() { serial.TransformBatchKernel(bp.pl, work, bp.w, fft.KernelSoARadix4) })
	l.set("host.batch_vs_loop.n4096", loop/batch)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probeReps; i++ {
		serial.TransformBatchKernel(bp.pl, work, bp.w, fft.KernelSoARadix4)
		serial.InverseBatchKernel(bp.pl, work, bp.w, fft.KernelSoARadix4)
	}
	runtime.ReadMemStats(&after)
	l.set("host.allocs_per_op.batch", float64(after.Mallocs-before.Mallocs)/probeReps)

	// The public observer only reports from the parallel path, so the
	// pass breakdown is taken with two workers.
	obs := &passObserver{ns: map[string]float64{}}
	plan := must(codeletfft.NewHostPlan(largeN, codeletfft.WithWorkers(2), codeletfft.WithObserver(obs),
		codeletfft.WithKernel(codeletfft.KernelSoARadix4)))
	big := randomComplex(newRNG(seed, 14), largeN)
	_ = plan.Transform(big) // warm; host plans never return an error
	_ = plan.Inverse(big)
	*obs = passObserver{ns: map[string]float64{}}
	var wall float64
	for i := 0; i < probeMinReps; i++ {
		t0 := time.Now()
		_ = plan.Transform(big)
		_ = plan.Inverse(big)
		wall += float64(time.Since(t0))
	}
	pack, unpack := obs.ns[host.PassSoAPack], obs.ns[host.PassSoAUnpack]
	stages := obs.ns[host.StagePassLabel(fft.KernelSoARadix4)]
	l.set("host.pass_share.pack", pack/wall)
	l.set("host.pass_share.stages", stages/wall)
	l.set("host.pass_share.unpack", unpack/wall)
	// The inverse path's conjugate and scale sweeps are not reported to
	// the observer on the kernel path: they are the unobserved rest.
	l.set("host.pass_share.conj_scale", 1-(pack+stages+unpack)/wall)
	passes := soaPasses(must(fft.NewPlan(largeN, 64)), fft.KernelSoARadix4)
	l.set("host.passes_per_transform.2p20", passes)
	l.set("host.bytes_computed_per_pt.2p20", passes*32)
}

// interleavedNs times a and b alternately (so both see the same
// machine) and returns their medians.
func interleavedNs(prep, a, b func()) (float64, float64) {
	var ta, tb []float64
	start := time.Now()
	for len(ta) < probeMinReps || (len(ta) < probeReps && time.Since(start) < probeBudget) {
		prep()
		t0 := time.Now()
		a()
		ta = append(ta, float64(time.Since(t0)))
		prep()
		t0 = time.Now()
		b()
		tb = append(tb, float64(time.Since(t0)))
	}
	return median(ta), median(tb)
}

func probeFacade(l ledger, seed uint64) {
	w1 := codeletfft.WithWorkers(1)
	// Tuning and plan construction: what set-up pays.
	for _, s := range []struct {
		name string
		n    int
		reps int
	}{{"n4096", 4096, 3}, {"2p20", largeN, 1}} {
		l.set("tune.resolve_ms."+s.name, medianNs(s.reps, tune.Reset, func() {
			_ = must(codeletfft.NewHostPlan(s.n, w1)).Kernel()
		})/1e6)
	}
	_ = must(codeletfft.NewHostPlan(4096, w1)).Kernel() // memoize the key tune.hit_ns looks up
	l.set("facade.new_plan_ms.n4096", medianNs(probeReps, nil, func() { _, _ = codeletfft.NewHostPlan(4096, w1) })/1e6)

	key := tune.Key{N: 4096, TaskSize: 64, Workers: 1}
	cands := fft.ConcreteKernels()
	l.set("tune.hit_ns", perCallNs(1000, func() { tune.Resolve(key, cands, nil) }))

	c := cache.New[int, int](8, 16, func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 })
	create := func() (int, error) { return 1, nil }
	_, _ = c.GetOrCreate(7, create)
	l.set("cache.hit_ns", perCallNs(1000, func() { _, _ = c.GetOrCreate(7, create) }))
	next := 100
	l.set("cache.miss_ns", perCallNs(1000, func() {
		next++
		_, _ = c.GetOrCreate(next, create)
	}))

	_, _ = codeletfft.CachedHostPlan(4096, w1)
	l.set("facade.cached_plan_hit_ns", perCallNs(1000, func() { _, _ = codeletfft.CachedHostPlan(4096, w1) }))
	hits, misses := codeletfft.PlanCacheStats()
	l.set("facade.plan_cache_hit_share", float64(hits)/float64(max(1, hits+misses)))

	// What the facade adds on top of the serial fft call it ends in.
	p := newPow2Probe(seed, 1024)
	hp := must(codeletfft.NewHostPlan(1024, w1, codeletfft.WithKernel(codeletfft.KernelSoARadix4)))
	direct, facade := interleavedNs(p.restore,
		func() { p.pl.TransformKernel(p.data, p.w, fft.KernelSoARadix4) },
		func() { _ = hp.Transform(p.data) })
	l.set("facade.overhead_share.n1024", (facade-direct)/facade)

	r := newRNG(seed, 15)
	cp := must(codeletfft.NewHostPlan(batchRealN, w1))
	rp := must(codeletfft.NewRealPlan(batchRealN, w1))
	cin := randomComplex(r, batchRealN)
	cdata := make([]complex128, batchRealN)
	rin := make([]float64, batchRealN)
	fillReal(r, rin)
	spec := make([]complex128, rp.SpectrumLen())
	_ = cp.Transform(cdata)
	_ = rp.Transform(spec, rin)
	tc, trl := interleavedNs(func() { copy(cdata, cin) },
		func() { _ = cp.Transform(cdata) }, func() { _ = rp.Transform(spec, rin) })
	l.set("facade.real_vs_complex.n4096", tc/trl)

	conv := must(codeletfft.NewConvPlan(batchChunk, batchTaps, w1))
	filter := must(conv.FilterStream(randomComplex(r, batchTaps)))
	chunk, out := randomComplex(r, batchChunk), make([]complex128, batchChunk)
	_ = filter.Process(out, chunk)
	l.set("facade.conv_mpts_per_s.k255", batchChunk*1e3/medianNs(probeReps, nil, func() { _ = filter.Process(out, chunk) }))

	stft := must(codeletfft.NewSTFTPlan(batchFrame, batchHop, codeletfft.HannWindow(batchFrame), w1))
	signal := make([]float64, batchChunk)
	fillReal(r, signal)
	spectro := randomRows(r, stft.NumFrames(batchChunk), batchFrame)
	_ = stft.Transform(spectro, signal)
	l.set("facade.stft_mpts_per_s.f1024", batchChunk*1e3/medianNs(probeReps, nil, func() { _ = stft.Transform(spectro, signal) }))
}
