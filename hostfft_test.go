package codeletfft_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"codeletfft"
	"codeletfft/internal/fft"
)

// The facade's providers all satisfy the unified Plan interface.
var _ codeletfft.Plan = (*codeletfft.HostPlan)(nil)

func noise(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if v := real(d)*real(d) + imag(d)*imag(d); v > m {
			m = v
		}
	}
	return m
}

func TestHostPlanMatchesReference(t *testing.T) {
	n := 1 << 12
	h, err := codeletfft.NewHostPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != n {
		t.Fatalf("N = %d", h.N())
	}
	x := noise(n, 1)
	data := append([]complex128(nil), x...)
	if err := h.Transform(data); err != nil {
		t.Fatal(err)
	}
	want := fft.Recursive(x)
	if e := maxErr(data, want); e > 1e-12 {
		t.Fatalf("host plan error %g", e)
	}
	if err := h.Inverse(data); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, x); e > 1e-16 {
		t.Fatalf("roundtrip error %g", e)
	}
}

func TestHostPlanRejectsBadShape(t *testing.T) {
	// Non-power-of-two lengths now plan successfully (mixed-radix);
	// only non-positive lengths are rejected.
	for _, n := range []int{0, -1, -64} {
		if _, err := codeletfft.NewHostPlan(n); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
			t.Fatalf("NewHostPlan(%d) err = %v, want ErrUnsupportedLength", n, err)
		}
	}
}

// sameBits reports whether a and b are bitwise-identical — the
// determinism contract a fixed (plan, kernel) pair documents across
// serial, parallel, and batched execution.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestHostPlanParallelMatchesSerial pins the facade-level determinism
// guarantee per kernel: a single-worker plan and a multi-worker plan
// with the same pinned kernel produce bitwise-identical output.
func TestHostPlanParallelMatchesSerial(t *testing.T) {
	n := 1 << 14
	for _, k := range codeletfft.Kernels() {
		serialPlan, err := codeletfft.NewHostPlan(n, codeletfft.WithWorkers(1), codeletfft.WithKernel(k))
		if err != nil {
			t.Fatal(err)
		}
		parPlan, err := codeletfft.NewHostPlan(n,
			codeletfft.WithWorkers(4), codeletfft.WithThreshold(1), codeletfft.WithKernel(k))
		if err != nil {
			t.Fatal(err)
		}
		if parPlan.Workers() != 4 {
			t.Fatalf("Workers = %d, want 4", parPlan.Workers())
		}
		x := noise(n, 5)
		serial := append([]complex128(nil), x...)
		_ = serialPlan.Transform(serial)
		par := append([]complex128(nil), x...)
		_ = parPlan.Transform(par)
		if !sameBits(par, serial) {
			t.Fatalf("%v: parallel Transform diverged from serial", k)
		}
		_ = parPlan.Inverse(par)
		_ = serialPlan.Inverse(serial)
		if !sameBits(par, serial) {
			t.Fatalf("%v: parallel Inverse diverged from serial", k)
		}
		if e := maxErr(par, x); e > 1e-16 {
			t.Fatalf("%v: parallel roundtrip error %g", k, e)
		}
	}
}

// TestHostPlan2DParallelMatchesSerial: a 2-D plan sharded over three
// workers is bitwise its serial run, at a power-of-two shape under each
// kernel and at 97×60, whose columns run Bluestein on pooled buffers.
func TestHostPlan2DParallelMatchesSerial(t *testing.T) {
	for _, sh := range [][2]int{{64, 32}, {97, 60}} {
		rows, cols := sh[0], sh[1]
		for _, k := range codeletfft.Kernels() {
			hs, err := codeletfft.NewHostPlan2D(rows, cols, codeletfft.WithWorkers(1), codeletfft.WithKernel(k))
			if err != nil {
				t.Fatal(err)
			}
			hp, err := codeletfft.NewHostPlan2D(rows, cols,
				codeletfft.WithWorkers(3), codeletfft.WithThreshold(1), codeletfft.WithKernel(k))
			if err != nil {
				t.Fatal(err)
			}
			x := noise(rows*cols, 6)
			serial := append([]complex128(nil), x...)
			_ = hs.Transform(serial)
			par := append([]complex128(nil), x...)
			_ = hp.Transform(par)
			if !sameBits(par, serial) {
				t.Fatalf("%dx%d %v: 2-D parallel Transform diverged from serial", rows, cols, k)
			}
			_ = hs.Inverse(serial)
			if err := hp.Inverse(par); err != nil {
				t.Fatalf("%dx%d %v: 2-D parallel Inverse: %v", rows, cols, k, err)
			}
			if !sameBits(par, serial) {
				t.Fatalf("%dx%d %v: 2-D parallel Inverse diverged from serial", rows, cols, k)
			}
			if e := maxErr(par, x); e > 1e-16 {
				t.Fatalf("%dx%d %v: 2-D parallel roundtrip error %g", rows, cols, k, e)
			}
		}
	}
}

// TestHostPlan2DMatchesDFT holds 2-D plans of shapes no power of two
// fits — mixed-radix and Bluestein axes — to the brute-force 2-D DFT.
func TestHostPlan2DMatchesDFT(t *testing.T) {
	shapes := [][2]int{{6, 10}, {7, 9}, {480, 640}}
	if raceEnabled {
		shapes = shapes[:2] // the O(n²) reference takes minutes under the detector
	}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		h, err := codeletfft.NewHostPlan2D(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		x := noise(rows*cols, int64(rows*cols))
		want := rowsThenCols(t, x, rows, cols, dftInPlace, dftInPlace)
		if e := maxErr(applied(t, x, h.Transform), want); e > 1e-18*float64(rows*cols) {
			t.Errorf("%dx%d (%s): squared error %g against the 2-D DFT", rows, cols, h.Algorithm(), e)
		}
		if e := maxErr(applied(t, want, h.Inverse), x); e > 1e-24 {
			t.Errorf("%dx%d: round trip squared error %g", rows, cols, e)
		}
	}
}

// dftInPlace overwrites x with codeletfft.DFT(x).
func dftInPlace(x []complex128) error {
	copy(x, codeletfft.DFT(x))
	return nil
}

func TestHostPlan2DRoundTrip(t *testing.T) {
	h, err := codeletfft.NewHostPlan2D(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	x := noise(32*64, 2)
	data := append([]complex128(nil), x...)
	_ = h.Transform(data)
	_ = h.Inverse(data)
	if e := maxErr(data, x); e > 1e-16 {
		t.Fatalf("2-D roundtrip error %g", e)
	}
	if k := h.Kernel(); k == codeletfft.KernelAuto {
		t.Fatal("2-D plan did not resolve a concrete kernel")
	}
}

func TestDFTSmall(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	y := codeletfft.DFT(x)
	if real(y[0]) != 10 {
		t.Fatalf("DC = %v, want 10", y[0])
	}
	h, err := codeletfft.NewHostPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	back := append([]complex128(nil), x...)
	if err := h.Transform(back); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(back, y); e > 1e-14 {
		t.Fatalf("HostPlan vs DFT error %g", e)
	}
	if err := h.Inverse(back); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(back, x); e > 1e-20 {
		t.Fatalf("HostPlan round trip error %g", e)
	}
}

func TestHostPlanOptionDefaults(t *testing.T) {
	w, err := codeletfft.NewHostPlan(64, codeletfft.WithWorkers(3), codeletfft.WithThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", w.Workers())
	}
}

// TestHostPlanTaskSizeRule: a staged plan of a power of two runs
// P = min(64, N) — a real plan on its N/2-point half — so its output is
// bitwise the fft-level schedule built with that P and the rule's
// kernel, forward and inverse, on both sides of 64 and of the 128-point
// kernel switch. A plan pinned to the rule's kernel is staged at every
// length, a default one where fft.MixedPow2 leaves it (TestPow2Routing
// has the rest). A 2-D plan, default or pinned, is bitwise the 1-D
// plans of its axes built with its options: the cols-point plan on each
// row, then the rows-point plan on each column — forward, or inverse on
// both axes for the inverse.
func TestHostPlanTaskSizeRule(t *testing.T) {
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for lg := 1; lg <= 14; lg++ {
		n := 1 << lg
		pl, err := fft.NewPlan(n, min(64, n))
		if err != nil {
			t.Fatal(err)
		}
		w, k := fft.Twiddles(n), fft.AutoKernel(n)
		x := noise(n, int64(n))
		fwd, inv := applied(t, x, pl.Schedule(w, k, false).Run), applied(t, x, pl.Schedule(w, k, true).Run)
		for _, mk := range []struct {
			name string
			new  func(int, ...codeletfft.HostOption) (*codeletfft.HostPlan, error)
		}{{"NewHostPlan", codeletfft.NewHostPlan}, {"CachedHostPlan", codeletfft.CachedHostPlan}} {
			for _, opts := range stagedOpts(n) {
				h, err := mk.new(n, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(applied(t, x, h.Transform), fwd) || !sameBits(applied(t, x, h.Inverse), inv) {
					t.Errorf("%s(%d, %d options) is not the P=%d %v schedule", mk.name, n, len(opts), min(64, n), k)
				}
			}
		}
	}

	for lg := 2; lg <= 12; lg++ {
		n, h := 1<<lg, 1<<(lg-1)
		split, err := fft.NewRealSplit(n)
		if err != nil {
			t.Fatal(err)
		}
		half, err := fft.NewPlan(h, min(64, h))
		if err != nil {
			t.Fatal(err)
		}
		wh, k := fft.Twiddles(h), fft.AutoKernel(h)
		z := noise(n, int64(n))
		x := make([]float64, n)
		for i := range x {
			x[i] = real(z[i])
		}
		wantSpec := make([]complex128, split.SpectrumLen())
		for j := range h {
			wantSpec[j] = complex(x[2*j], x[2*j+1])
		}
		check(half.Schedule(wh, k, false).Run(wantSpec[:h]))
		split.Unpack(wantSpec)
		work := make([]complex128, h)
		split.PreInverse(work, wantSpec)
		check(half.Schedule(wh, k, true).Run(work))
		wantBack := make([]float64, n)
		for j, v := range work {
			wantBack[2*j], wantBack[2*j+1] = real(v), imag(v)
		}

		for _, opts := range stagedOpts(h) {
			rp, err := codeletfft.NewRealPlan(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			spec := make([]complex128, rp.SpectrumLen())
			check(rp.Transform(spec, x))
			back := make([]float64, n)
			check(rp.Inverse(back, wantSpec))
			if !sameBits(spec, wantSpec) || !sameBits(realParts(back), realParts(wantBack)) {
				t.Errorf("NewRealPlan(%d, %d options) is not the split around the P=%d %v half schedule", n, len(opts), min(64, h), k)
			}
		}
	}

	for _, sh := range [][2]int{{16, 64}, {64, 16}, {8, 256}, {128, 128}, {6, 10}, {97, 60}, {1, 64}, {64, 1}} {
		rows, cols := sh[0], sh[1]
		x := noise(rows*cols, int64(rows))
		for _, k := range append([]codeletfft.Kernel{codeletfft.KernelAuto}, codeletfft.Kernels()...) {
			opt := codeletfft.WithKernel(k)
			h, err := codeletfft.NewHostPlan2D(rows, cols, opt)
			if err != nil {
				t.Fatal(err)
			}
			row, err := codeletfft.NewHostPlan(cols, opt)
			if err != nil {
				t.Fatal(err)
			}
			col, err := codeletfft.NewHostPlan(rows, opt)
			if err != nil {
				t.Fatal(err)
			}
			fwd := rowsThenCols(t, x, rows, cols, row.Transform, col.Transform)
			inv := rowsThenCols(t, x, rows, cols, row.Inverse, col.Inverse)
			if !sameBits(applied(t, x, h.Transform), fwd) || !sameBits(applied(t, x, h.Inverse), inv) {
				t.Errorf("NewHostPlan2D(%d, %d, %v) is not NewHostPlan(%d) on the rows and NewHostPlan(%d) on the columns",
					rows, cols, k, cols, rows)
			}
		}
	}
}

// stagedOpts lists the option sets that give the staged plan of the
// power of two n: the kernel the rule names pinned, and the default
// unless fft.MixedPow2 moves it.
func stagedOpts(n int) [][]codeletfft.HostOption {
	sets := [][]codeletfft.HostOption{{codeletfft.WithKernel(fft.AutoKernel(n))}}
	if !fft.MixedPow2(n) {
		sets = append(sets, nil)
	}
	return sets
}

// realParts widens x to complex128 for sameBits.
func realParts(x []float64) []complex128 {
	z := make([]complex128, len(x))
	for i, v := range x {
		z[i] = complex(v, 0)
	}
	return z
}

// TestWithKernelPinsSelection: WithKernel fixes the kernel, every
// pinned kernel agrees with the radix-2 reference to rounding, and
// KernelAuto resolves to a concrete kernel, the same one for the same
// shape.
func TestWithKernelPinsSelection(t *testing.T) {
	const n = 1 << 10
	ref, err := codeletfft.NewHostPlan(n, codeletfft.WithKernel(codeletfft.KernelRadix2))
	if err != nil {
		t.Fatal(err)
	}
	x := noise(n, 9)
	want := append([]complex128(nil), x...)
	_ = ref.Transform(want)
	for _, k := range codeletfft.Kernels() {
		h, err := codeletfft.NewHostPlan(n, codeletfft.WithKernel(k))
		if err != nil {
			t.Fatal(err)
		}
		if h.Kernel() != k {
			t.Fatalf("Kernel() = %v, want %v", h.Kernel(), k)
		}
		data := append([]complex128(nil), x...)
		_ = h.Transform(data)
		for i := range data {
			if d := data[i] - want[i]; math.Hypot(real(d), imag(d)) > 1e-9*math.Hypot(real(want[i]), imag(want[i]))+1e-9 {
				t.Fatalf("%v diverged from radix-2 at bin %d", k, i)
			}
		}
		_ = h.Inverse(data)
		if e := maxErr(data, x); e > 1e-16 {
			t.Fatalf("%v roundtrip error %g", k, e)
		}
	}

	auto1, err := codeletfft.NewHostPlan(n, codeletfft.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	auto2, err := codeletfft.NewHostPlan(n, codeletfft.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	k1 := auto1.Kernel()
	if k1 == codeletfft.KernelAuto {
		t.Fatal("Auto plan did not resolve a concrete kernel")
	}
	// Same shape → same kernel.
	if k2 := auto2.Kernel(); k2 != k1 {
		t.Fatalf("same-shape Auto plans resolved %v and %v", k1, k2)
	}
	a := append([]complex128(nil), x...)
	b := append([]complex128(nil), x...)
	_ = auto1.Transform(a)
	_ = auto2.Transform(b)
	if !sameBits(a, b) {
		t.Fatal("same-shape Auto plans disagree bitwise")
	}
}

// TestTransformCtx: the context-aware variants refuse a done context
// without touching data and run normally otherwise.
func TestTransformCtx(t *testing.T) {
	h1, err := codeletfft.NewHostPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := codeletfft.NewHostPlan2D(16, 24)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, h := range []*codeletfft.HostPlan{h1, h2} {
		x := noise(h.N(), 17)
		data := append([]complex128(nil), x...)
		if err := h.TransformCtx(ctx, data); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: TransformCtx on canceled ctx = %v, want context.Canceled", h.Algorithm(), err)
		}
		if !sameBits(data, x) {
			t.Fatalf("%s: canceled TransformCtx modified data", h.Algorithm())
		}
		if err := h.InverseCtx(ctx, data); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: InverseCtx on canceled ctx = %v, want context.Canceled", h.Algorithm(), err)
		}

		if err := h.TransformCtx(context.Background(), data); err != nil {
			t.Fatal(err)
		}
		want := append([]complex128(nil), x...)
		_ = h.Transform(want)
		if !sameBits(data, want) {
			t.Fatalf("%s: TransformCtx diverged from Transform", h.Algorithm())
		}
		if err := h.InverseCtx(context.Background(), data); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(data, x); e > 1e-16 {
			t.Fatalf("%s: ctx roundtrip error %g", h.Algorithm(), e)
		}
	}
}

// TestPlanInterfaceUsage drives a HostPlan through the Plan interface
// the way serving code does.
func TestPlanInterfaceUsage(t *testing.T) {
	var p codeletfft.Plan
	h, err := codeletfft.NewHostPlan(128)
	if err != nil {
		t.Fatal(err)
	}
	p = h
	x := noise(128, 23)
	data := append([]complex128(nil), x...)
	if err := p.Transform(data); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(data); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, x); e > 1e-16 {
		t.Fatalf("interface roundtrip error %g", e)
	}
	batch := [][]complex128{noise(128, 1), noise(128, 2)}
	if err := p.TransformBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := p.InverseBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := p.TransformCtx(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	if err := p.InverseCtx(context.Background(), data); err != nil {
		t.Fatal(err)
	}
}

func TestParseKernelFacade(t *testing.T) {
	cases := map[string]codeletfft.Kernel{
		"auto":        codeletfft.KernelAuto,
		"radix2":      codeletfft.KernelRadix2,
		"radix4":      codeletfft.KernelRadix4,
		"split-radix": codeletfft.KernelSplitRadix,
	}
	for s, want := range cases {
		got, err := codeletfft.ParseKernel(s)
		if err != nil || got != want {
			t.Fatalf("ParseKernel(%q) = %v, %v, want %v", s, got, err, want)
		}
	}
	if _, err := codeletfft.ParseKernel("radix8"); err == nil {
		t.Fatal("ParseKernel accepted an unknown kernel")
	}
}

func TestHostPlanBatchMatchesLoop(t *testing.T) {
	const b = 7
	h1, err := codeletfft.NewHostPlan(512, codeletfft.WithWorkers(4), codeletfft.WithThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := codeletfft.NewHostPlan2D(24, 97, codeletfft.WithWorkers(4), codeletfft.WithThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*codeletfft.HostPlan{h1, h2} {
		n := h.N()
		batch := make([][]complex128, b)
		want := make([][]complex128, b)
		for i := range batch {
			batch[i] = noise(n, int64(i))
			want[i] = append([]complex128(nil), batch[i]...)
			_ = h.Transform(want[i])
		}
		_ = h.TransformBatch(batch)
		for i := range batch {
			if !sameBits(batch[i], want[i]) {
				t.Fatalf("%s: TransformBatch diverged from Transform loop at transform %d", h.Algorithm(), i)
			}
		}
		for i := range want {
			_ = h.Inverse(want[i])
		}
		_ = h.InverseBatch(batch)
		for i := range batch {
			if !sameBits(batch[i], want[i]) {
				t.Fatalf("%s: InverseBatch diverged from Inverse loop at transform %d", h.Algorithm(), i)
			}
		}
	}
}

// TestRealPlanEvenLengths: the general even-N real path (mixed-radix or
// Bluestein half transform) matches the full complex transform and
// round-trips, across composite and 2·prime lengths.
func TestRealPlanEvenLengths(t *testing.T) {
	for _, n := range []int{6, 10, 12, 100, 360, 1000, 2310, 1 << 10} {
		r, err := codeletfft.NewRealPlan(n)
		if err != nil {
			t.Fatalf("NewRealPlan(%d): %v", n, err)
		}
		if r.N() != n || r.SpectrumLen() != n/2+1 {
			t.Fatalf("n=%d: N, SpectrumLen = %d, %d", n, r.N(), r.SpectrumLen())
		}
		rng := rand.New(rand.NewSource(11))
		x := make([]float64, n)
		wide := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			wide[i] = complex(x[i], 0)
		}
		full := codeletfft.DFT(wide)
		spec := make([]complex128, r.SpectrumLen())
		if err := r.Transform(spec, x); err != nil {
			t.Fatal(err)
		}
		for k := range spec {
			d := spec[k] - full[k]
			if math.Hypot(real(d), imag(d)) > 1e-8 {
				t.Fatalf("n=%d (%s): bin %d = %v, want %v", n, r.Algorithm(), k, spec[k], full[k])
			}
		}
		back := make([]float64, n)
		if err := r.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if math.Abs(back[i]-x[i]) > 1e-10 {
				t.Fatalf("n=%d: real round trip diverged at %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

// TestRealPlanFacade covers the typed RealPlan surface: construction
// via the shared option set, kernel pinning, caching, context variants,
// and agreement with the full complex transform.
func TestRealPlanFacade(t *testing.T) {
	const n = 1 << 10
	rng := rand.New(rand.NewSource(29))
	x := make([]float64, n)
	wide := make([]complex128, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		wide[i] = complex(x[i], 0)
	}
	full := fft.Recursive(wide)

	for _, k := range append([]codeletfft.Kernel{codeletfft.KernelAuto}, codeletfft.Kernels()...) {
		r, err := codeletfft.NewRealPlan(n, codeletfft.WithKernel(k))
		if err != nil {
			t.Fatal(err)
		}
		if r.N() != n || r.SpectrumLen() != n/2+1 {
			t.Fatalf("N, SpectrumLen = %d, %d", r.N(), r.SpectrumLen())
		}
		if k != codeletfft.KernelAuto && r.Kernel() != k {
			t.Fatalf("Kernel() = %v, want %v", r.Kernel(), k)
		}
		spec := make([]complex128, r.SpectrumLen())
		if err := r.Transform(spec, x); err != nil {
			t.Fatal(err)
		}
		for bin := range spec {
			d := spec[bin] - full[bin]
			if math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("%v: bin %d = %v, want %v", k, bin, spec[bin], full[bin])
			}
		}
		back := make([]float64, n)
		if err := r.Inverse(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if math.Abs(back[i]-x[i]) > 1e-12 {
				t.Fatalf("%v: real round trip diverged at %d", k, i)
			}
		}
	}

	// Cached variant shares the packed plan; context variants obey ctx.
	r1, err := codeletfft.CachedRealPlan(n, codeletfft.WithKernel(codeletfft.KernelRadix4))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := codeletfft.CachedRealPlan(n, codeletfft.WithKernel(codeletfft.KernelRadix4))
	if err != nil {
		t.Fatal(err)
	}
	s1 := make([]complex128, r1.SpectrumLen())
	s2 := make([]complex128, r2.SpectrumLen())
	_ = r1.Transform(s1, x)
	_ = r2.Transform(s2, x)
	if !sameBits(s1, s2) {
		t.Fatal("cached real plans disagree")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r1.TransformCtx(ctx, s1, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("TransformCtx on canceled ctx = %v", err)
	}
	back := make([]float64, n)
	if err := r1.InverseCtx(context.Background(), back, s1); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{2, 3, 101} {
		if _, err := codeletfft.NewRealPlan(n); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
			t.Fatalf("NewRealPlan(%d) err = %v, want ErrUnsupportedLength", n, err)
		}
	}
}

// TestRealPlanZeroAllocs: a real plan's steady-state Transform and
// Inverse allocate nothing on a serial engine, at power-of-two and other
// even lengths alike — the inverse's half transform runs in the
// caller's signal — and so does a 2-D plan's, whose per-unit scratch and
// column staging come from the schedule pools.
func TestRealPlanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := []codeletfft.HostOption{codeletfft.WithWorkers(1), codeletfft.WithKernel(codeletfft.KernelSoARadix4)}
	for _, n := range []int{4096, 3000} {
		for name, build := range map[string]func(int, ...codeletfft.HostOption) (*codeletfft.RealPlan, error){
			"NewRealPlan": codeletfft.NewRealPlan, "CachedRealPlan": codeletfft.CachedRealPlan,
		} {
			rp, err := build(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, n)
			for i, v := range noise(n, int64(n)) {
				x[i] = real(v)
			}
			spec := make([]complex128, rp.SpectrumLen())
			cycle := func() {
				_ = rp.Transform(spec, x)
				_ = rp.Inverse(x, spec)
			}
			cycle() // warm the pools and the plan's split twiddles
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Errorf("%s(%d) [%s]: Transform+Inverse allocates %v objects in steady state, want 0",
					name, n, rp.Algorithm(), allocs)
			}
		}
	}
	// 97×60: the columns run Bluestein, each on a pooled buffer.
	for _, sh := range [][2]int{{64, 128}, {97, 60}} {
		p2, err := codeletfft.NewHostPlan2D(sh[0], sh[1], opts...)
		if err != nil {
			t.Fatal(err)
		}
		grid := noise(p2.N(), 5)
		cycle := func() {
			_ = p2.Transform(grid)
			_ = p2.Inverse(grid)
		}
		cycle()
		if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
			t.Errorf("HostPlan2D %dx%d: Transform+Inverse allocates %v objects in steady state, want 0", sh[0], sh[1], allocs)
		}
	}
}

// TestShardedZeroAllocs: with the serial cut at one element every pass
// is sharded over the pool, and a steady-state call still allocates
// nothing — the pool's task carries the schedule's own pass and State,
// so dispatching a pass builds no closure. It covers each family on
// 2 and 4 workers, forward and inverse: mixed, Bluestein, a pinned
// kernel, real, 2-D, convolution (its filter schedules nested inside
// the sharded segments pass) and a batch with fewer rows than workers
// (its rows run through the pass-sharded path).
func TestShardedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, workers := range []int{2, 4} {
		opts := []codeletfft.HostOption{codeletfft.WithWorkers(workers), codeletfft.WithThreshold(1)}
		plan := func(n int, extra ...codeletfft.HostOption) *codeletfft.HostPlan {
			h, err := codeletfft.NewHostPlan(n, append(extra, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		cases := map[string]func(){}
		for name, h := range map[string]*codeletfft.HostPlan{
			"mixed 3072":     plan(3 << 10),
			"bluestein 2051": plan(1<<11 + 3),
			"soa4 4096":      plan(1<<12, codeletfft.WithKernel(codeletfft.KernelSoARadix4)),
		} {
			x := noise(h.N(), 1)
			cases[name] = func() {
				_ = h.Transform(x)
				_ = h.Inverse(x)
			}
		}
		rp, err := codeletfft.NewRealPlan(1<<12, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sig := make([]float64, rp.N())
		spec := make([]complex128, rp.SpectrumLen())
		cases["real 4096"] = func() {
			_ = rp.Transform(spec, sig)
			_ = rp.Inverse(sig, spec)
		}
		p2, err := codeletfft.NewHostPlan2D(64, 128, opts...)
		if err != nil {
			t.Fatal(err)
		}
		grid := noise(p2.N(), 2)
		cases["2-D 64x128"] = func() {
			_ = p2.Transform(grid)
			_ = p2.Inverse(grid)
		}
		cp, err := codeletfft.NewConvPlan(3000, 100, opts...)
		if err != nil {
			t.Fatal(err)
		}
		cx, ch := noise(cp.N(), 3), noise(cp.KernelLen(), 4)
		out := make([]complex128, cp.OutLen())
		cases["conv 3000x100"] = func() {
			_ = cp.Convolve(out, cx, ch)
			_ = cp.CrossCorrelate(out, cx, ch)
		}
		bh := plan(1 << 12)
		rows := make([][]complex128, workers-1)
		for r := range rows {
			rows[r] = noise(bh.N(), int64(5+r))
		}
		cases["batch of workers-1"] = func() {
			_ = bh.TransformBatch(rows)
			_ = bh.InverseBatch(rows)
		}
		for name, cycle := range cases {
			for i := 0; i < 3; i++ { // start the pool, fill the schedule pools
				cycle()
			}
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Errorf("%s, %d workers: forward+inverse allocates %v objects in steady state, want 0", name, workers, allocs)
			}
		}
	}
}

// TestRealPlanOddOffsetSignal: a real plan moves the signal through
// complex views of it — the forward copies it into the spectrum buffer,
// the inverse runs its half transform in the signal itself — so a signal
// that starts at an odd float64 index (8-byte but not 16-byte aligned)
// must give the bits an aligned one does. Under -race, checkptr vets the
// views.
func TestRealPlanOddOffsetSignal(t *testing.T) {
	for _, n := range []int{16, 1000, 4096, 65536} {
		rp, err := codeletfft.NewRealPlan(n, codeletfft.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		aligned, odd := make([]float64, n), make([]float64, n+1)[1:]
		for i, v := range noise(n, int64(n)) {
			aligned[i], odd[i] = real(v), real(v)
		}
		want, got := make([]complex128, rp.SpectrumLen()), make([]complex128, rp.SpectrumLen())
		mustRun(t, rp.Transform(want, aligned))
		mustRun(t, rp.Transform(got, odd))
		if !sameBits(got, want) {
			t.Errorf("n=%d: Transform of an odd-offset signal differs from an aligned one", n)
		}
		mustRun(t, rp.Inverse(aligned, want))
		mustRun(t, rp.Inverse(odd, want))
		if !sameBits(realParts(odd), realParts(aligned)) {
			t.Errorf("n=%d: Inverse into an odd-offset signal differs from an aligned one", n)
		}
	}
}

// TestOnePoolAcrossShapes: plans hold no goroutines. With the collector
// off (so nothing could be reaped behind the count), 100 distinct cached
// shapes, each run as a stolen batch and as a sharded single transform,
// leave at most the process's one pool behind — GOMAXPROCS workers,
// however many plans were built.
func TestOnePoolAcrossShapes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rows = 4
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		n := 512 + 4*i
		p, err := codeletfft.CachedHostPlan(n, codeletfft.WithWorkers(2), codeletfft.WithThreshold(1),
			codeletfft.WithKernel(codeletfft.KernelSoARadix4))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([][]complex128, rows)
		for r := range batch {
			batch[r] = make([]complex128, n)
		}
		if err := p.TransformBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := p.Transform(batch[0]); err != nil {
			t.Fatal(err)
		}
	}
	grew, limit := runtime.NumGoroutine()-before, runtime.GOMAXPROCS(0)
	t.Logf("100 shapes left %d new goroutines (limit %d)", grew, limit)
	if grew > limit {
		t.Fatalf("100 shapes left %d new goroutines, want at most GOMAXPROCS = %d (one pool)", grew, limit)
	}
}

func TestCachedHostPlan(t *testing.T) {
	h1, err := codeletfft.CachedHostPlan(1<<9, codeletfft.WithWorkers(2), codeletfft.WithKernel(codeletfft.KernelRadix2))
	if err != nil {
		t.Fatal(err)
	}
	before := codeletfft.PlanCacheLen()
	h2, err := codeletfft.CachedHostPlan(1<<9, codeletfft.WithWorkers(5), codeletfft.WithKernel(codeletfft.KernelRadix2))
	if err != nil {
		t.Fatal(err)
	}
	if codeletfft.PlanCacheLen() != before {
		t.Fatalf("second CachedHostPlan for the same shape grew the cache: %d -> %d",
			before, codeletfft.PlanCacheLen())
	}
	// Engine options apply per plan even when the core is shared.
	if h1.Workers() != 2 || h2.Workers() != 5 {
		t.Fatalf("Workers = %d, %d, want 2, 5", h1.Workers(), h2.Workers())
	}
	// Distinct kernel → distinct cache entry: a miss that builds a core
	// of its own. (The cache's length is no witness: the 100 shapes of
	// TestOnePoolAcrossShapes can leave the key's shard full, and then
	// the new entry evicts an old one.)
	_, m0 := codeletfft.PlanCacheStats()
	h3, err := codeletfft.CachedHostPlan(1<<9, codeletfft.WithKernel(codeletfft.KernelSplitRadix))
	if err != nil {
		t.Fatal(err)
	}
	if _, m1 := codeletfft.PlanCacheStats(); m1 != m0+1 || codeletfft.ForwardSchedule(h3) == codeletfft.ForwardSchedule(h1) {
		t.Fatalf("distinct kernel did not add an entry (misses %d -> %d)", m0, m1)
	}
	// A non-power-of-two length resolves a mixed-radix core (distinct
	// cache entry — the radix signature keeps it from aliasing staged
	// cores); a negative length still fails.
	if h, err := codeletfft.CachedHostPlan(1000); err != nil || h.N() != 1000 {
		t.Fatalf("CachedHostPlan(1000) = %v, %v, want a 1000-point plan", h, err)
	}
	if _, err := codeletfft.CachedHostPlan(-8); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
		t.Fatalf("CachedHostPlan(-8) err = %v, want ErrUnsupportedLength", err)
	}
	x := noise(1<<9, 13)
	a := append([]complex128(nil), x...)
	b := append([]complex128(nil), x...)
	_ = h1.Transform(a)
	_ = h2.Transform(b)
	if !sameBits(a, b) {
		t.Fatal("cached plans with a shared core disagree")
	}
}

// TestAutoKernelRule: KernelAuto is fft.AutoKernel of the length the
// kernel runs on — N for a power of two, N/2 for a real plan, the
// convolution length M for Bluestein, the row length for 2-D — on both
// sides of the rule's one threshold, and what Kernel() reports is what
// runs: the default plan's bits are the pinned plan's, except where
// fft.MixedPow2 puts a default power of two (or a real plan's half) on
// the mixed-radix plan, which reports the rule's answer as a smooth
// length's plan does and runs its own bits (TestPow2Routing).
func TestAutoKernelRule(t *testing.T) {
	const lo, hi = codeletfft.KernelRadix4, codeletfft.KernelSoARadix4
	for _, c := range []struct {
		n    int
		want codeletfft.Kernel
	}{{1, lo}, {2, lo}, {64, lo}, {127, lo}, {128, hi}, {1 << 20, hi}} {
		if got := fft.AutoKernel(c.n); got != c.want {
			t.Errorf("AutoKernel(%d) = %v, want %v", c.n, got, c.want)
		}
	}

	type plan interface{ Kernel() codeletfft.Kernel }
	check := func(name string, want codeletfft.Kernel, kernLen int, build func(...codeletfft.HostOption) (plan, []complex128)) {
		t.Helper()
		def, a := build()
		pin, b := build(codeletfft.WithKernel(want))
		if def.Kernel() != want || pin.Kernel() != want {
			t.Errorf("%s: Kernel() = %v (default), %v (pinned), want %v", name, def.Kernel(), pin.Kernel(), want)
		}
		if !fft.MixedPow2(kernLen) && !sameBits(a, b) {
			t.Errorf("%s: default plan and the plan pinned to %v disagree bitwise", name, want)
		}
	}
	complexPlan := func(n int) func(...codeletfft.HostOption) (plan, []complex128) {
		return func(opts ...codeletfft.HostOption) (plan, []complex128) {
			h, err := codeletfft.NewHostPlan(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			data := noise(n, 21)
			_ = h.Transform(data)
			return h, data
		}
	}
	realPlan := func(n int) func(...codeletfft.HostOption) (plan, []complex128) {
		return func(opts ...codeletfft.HostOption) (plan, []complex128) {
			r, err := codeletfft.NewRealPlan(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, n)
			for i, v := range noise(n, 22) {
				x[i] = real(v)
			}
			spec := make([]complex128, r.SpectrumLen())
			_ = r.Transform(spec, x)
			return r, spec
		}
	}
	plan2D := func(rows, cols int) func(...codeletfft.HostOption) (plan, []complex128) {
		return func(opts ...codeletfft.HostOption) (plan, []complex128) {
			h, err := codeletfft.NewHostPlan2D(rows, cols, opts...)
			if err != nil {
				t.Fatal(err)
			}
			data := noise(rows*cols, 23)
			_ = h.Transform(data)
			return h, data
		}
	}
	check("pow2 4", lo, 4, complexPlan(4))
	check("pow2 64", lo, 64, complexPlan(64))
	check("pow2 128", hi, 128, complexPlan(128))
	check("real 128 (half 64)", lo, 64, realPlan(128))
	check("real 256 (half 128)", hi, 128, realPlan(256))
	// kernLen 0: a Bluestein plan ignores the pin, so default and pinned
	// always agree.
	check("bluestein 31 (M=64)", lo, 0, complexPlan(31))
	check("bluestein 67 (M=144)", hi, 0, complexPlan(67))
	// A 2-D plan resolves each axis as the 1-D plan of its length does
	// and reports the row axis's kernel. Both axes of these shapes
	// resolve alike, so the row length stands for both.
	check("2-D 32x64 (rows of 64)", lo, 64, plan2D(32, 64))
	check("2-D 256x128 (rows of 128)", hi, 128, plan2D(256, 128))
}

// TestDefaultPlanIsReproducible: the default plan is a function of the
// length — two fresh default plans give the same bits as each other and
// as the plan the rule names, forward and inverse, however many ways
// the call is split: the mixed-radix schedule where fft.MixedPow2 moves
// the length, else the plan pinned to the rule's kernel.
func TestDefaultPlanIsReproducible(t *testing.T) {
	for _, n := range []int{4, 8, 64, 4096, 1 << 16} {
		x := noise(n, int64(n))
		for _, w := range []int{1, 2, 3} {
			run := func(opts ...codeletfft.HostOption) (fwd, inv []complex128) {
				h, err := codeletfft.NewHostPlan(n, append(opts, codeletfft.WithWorkers(w))...)
				if err != nil {
					t.Fatal(err)
				}
				fwd = append([]complex128(nil), x...)
				_ = h.Transform(fwd)
				inv = append([]complex128(nil), x...)
				_ = h.Inverse(inv)
				return fwd, inv
			}
			f1, i1 := run()
			f2, i2 := run()
			fp, ip := run(codeletfft.WithKernel(fft.AutoKernel(n)))
			ref := fmt.Sprintf("the plan pinned to %v", fft.AutoKernel(n))
			if fft.MixedPow2(n) {
				mp, err := fft.NewMixedPlan(n)
				if err != nil {
					t.Fatal(err)
				}
				fp, ip = applied(t, x, mp.Schedule(false).Run), applied(t, x, mp.Schedule(true).Run)
				ref = mp.String()
			}
			if !sameBits(f1, f2) || !sameBits(i1, i2) {
				t.Errorf("n=%d workers=%d: two default plans disagree bitwise", n, w)
			}
			if !sameBits(f1, fp) || !sameBits(i1, ip) {
				t.Errorf("n=%d workers=%d: default plan differs from %s", n, w, ref)
			}
		}
	}
}

// TestCachedPlanSharesCore: where the default plan of a power of two is
// staged — below 8 points on every build — a default cached plan and
// one pinned to the rule's kernel are one cache entry with one schedule
// (the mixed-radix and Bluestein plans of a length:
// TestPlanKernelAndAlgorithm; a moved power of two: TestPow2Routing),
// and a hit builds nothing but the returned plan.
func TestCachedPlanSharesCore(t *testing.T) {
	const n = 4
	pinned := codeletfft.WithKernel(fft.AutoKernel(n))
	a, err := codeletfft.CachedHostPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	before := codeletfft.PlanCacheLen()
	b, err := codeletfft.CachedHostPlan(n, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got := codeletfft.PlanCacheLen(); got != before {
		t.Fatalf("the pinned plan added a cache entry beside the default plan's: %d -> %d", before, got)
	}
	if codeletfft.ForwardSchedule(a) != codeletfft.ForwardSchedule(b) {
		t.Fatal("default and pinned plan run different schedule values")
	}

	if raceEnabled {
		return // instrumentation allocates
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = codeletfft.CachedHostPlan(n, pinned) }); allocs > 1 {
		t.Fatalf("cached-plan hit costs %v allocations, want at most 1", allocs)
	}
}

// TestPlanKernelAndAlgorithm pins what a plan reports for each family,
// built directly and through the cache, by default and with a kernel
// pinned: a power of two runs the pinned kernel or the rule's answer
// for n, a mixed-radix plan reports the rule's answer for n and a
// Bluestein plan the one for its convolution length M (67: M = 144, so
// soa4 where the rule for 67 says radix4), whatever was pinned. A
// default power of two that fft.MixedPow2 moves reports the schedule in
// the table's moved column and the rule's answer, as a smooth length's
// plan does. The table is the one the planner gave when the cache was also
// keyed on the length's radix signature. A pinned and a default plan of
// a length that runs no kernel share one cached core; a pinned and a
// default plan of a moved power of two are two.
func TestPlanKernelAndAlgorithm(t *testing.T) {
	const (
		r4   = codeletfft.KernelRadix4
		soa4 = codeletfft.KernelSoARadix4
	)
	for _, c := range []struct {
		n     int
		algo  string
		def   codeletfft.Kernel // Kernel() of the default plan; pinned too unless staged
		moved string            // Algorithm() of the default plan where fft.MixedPow2(n)
	}{
		{1, "mixed-radix[]", r4, ""},
		{2, "staged", r4, ""},
		{4, "staged", r4, ""},
		{8, "staged", r4, "mixed-radix[4 2]"},
		{64, "staged", r4, "mixed-radix[4 4 4]"},
		{128, "staged", soa4, "mixed-radix[4 4 4 2]"},
		{1024, "staged", soa4, "mixed-radix[4 4 4 4 4]"},
		{16384, "staged", soa4, "mixed-radix[4 4 4 4 4 4 4]"},
		{3, "mixed-radix[3]", r4, ""},
		{6, "mixed-radix[2 3]", r4, ""},
		{7, "mixed-radix[7]", r4, ""},
		{12, "mixed-radix[4 3]", r4, ""},
		{49, "mixed-radix[7 7]", r4, ""},
		{96, "mixed-radix[4 4 2 3]", r4, ""},
		{100, "mixed-radix[4 5 5]", r4, ""},
		{1000, "mixed-radix[4 2 5 5 5]", soa4, ""},
		{3072, "mixed-radix[4 4 4 4 4 3]", soa4, ""},
		{11, "bluestein[M=24 mixed-radix[4 2 3]]", r4, ""},
		{13, "bluestein[M=32 mixed-radix[4 4 2]]", r4, ""},
		{67, "bluestein[M=144 mixed-radix[4 4 3 3]]", soa4, ""},
		{127, "bluestein[M=256 mixed-radix[4 4 4 4]]", soa4, ""},
		{832, "bluestein[M=2000 mixed-radix[4 4 5 5 5]]", soa4, ""},
		{1009, "bluestein[M=2048 mixed-radix[4 4 4 4 4 2]]", soa4, ""},
	} {
		staged, moved := c.algo == "staged", fft.MixedPow2(c.n)
		for _, pin := range []codeletfft.Kernel{codeletfft.KernelAuto, codeletfft.KernelRadix2, codeletfft.KernelSplitRadix, codeletfft.KernelSoARadix2} {
			want, algo := c.def, c.algo
			if staged && pin != codeletfft.KernelAuto {
				want = pin
			}
			if moved && pin == codeletfft.KernelAuto {
				algo = c.moved
			}
			for _, build := range []struct {
				name string
				new  func(int, ...codeletfft.HostOption) (*codeletfft.HostPlan, error)
			}{{"NewHostPlan", codeletfft.NewHostPlan}, {"CachedHostPlan", codeletfft.CachedHostPlan}} {
				h, err := build.new(c.n, codeletfft.WithKernel(pin))
				if err != nil {
					t.Fatalf("%s(%d, %v): %v", build.name, c.n, pin, err)
				}
				if h.Kernel() != want || h.Algorithm() != algo {
					t.Errorf("%s(%d, %v): Kernel() = %v, Algorithm() = %q; want %v, %q",
						build.name, c.n, pin, h.Kernel(), h.Algorithm(), want, algo)
				}
			}
		}
		if staged {
			continue // a moved power of two's two cores: TestPow2Routing
		}
		pinned, err := codeletfft.CachedHostPlan(c.n, codeletfft.WithKernel(codeletfft.KernelSplitRadix))
		if err != nil {
			t.Fatal(err)
		}
		before := codeletfft.PlanCacheLen()
		def, err := codeletfft.CachedHostPlan(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := codeletfft.PlanCacheLen(); got != before || codeletfft.ForwardSchedule(pinned) != codeletfft.ForwardSchedule(def) {
			t.Errorf("n=%d: pinned and default plans do not share one cached core (cache %d -> %d)", c.n, before, got)
		}
	}
	// A 2-D plan names both axes' algorithms, the rows-point (column)
	// axis first, and reports the row axis's kernel: each axis is the
	// 1-D plan of its length, with the same options.
	h2, err := codeletfft.NewHostPlan2D(13, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a, k := h2.Algorithm(), h2.Kernel(); a != "2d[bluestein[M=32 mixed-radix[4 4 2]] x mixed-radix[4 2 5 5 5]]" || k != soa4 || h2.N() != 13000 {
		t.Errorf("NewHostPlan2D(13, 1000): Algorithm() = %q, Kernel() = %v, N() = %d", a, k, h2.N())
	}
	for _, sh := range [][2]int{{64, 128}, {128, 64}, {11, 256}} {
		rows, cols := sh[0], sh[1]
		for _, pin := range []codeletfft.Kernel{codeletfft.KernelAuto, codeletfft.KernelRadix2, codeletfft.KernelSoARadix4} {
			opt := codeletfft.WithKernel(pin)
			h, err := codeletfft.NewHostPlan2D(rows, cols, opt)
			if err != nil {
				t.Fatal(err)
			}
			row, err := codeletfft.NewHostPlan(cols, opt)
			if err != nil {
				t.Fatal(err)
			}
			col, err := codeletfft.NewHostPlan(rows, opt)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("2d[%s x %s]", col.Algorithm(), row.Algorithm()); h.Algorithm() != want || h.Kernel() != row.Kernel() {
				t.Errorf("NewHostPlan2D(%d, %d, %v): Algorithm() = %q, Kernel() = %v; want %q, %v",
					rows, cols, pin, h.Algorithm(), h.Kernel(), want, row.Kernel())
			}
		}
	}
}

// movedPow2 is the range of powers of two fft.MixedPow2 moves to the
// mixed-radix plan where its gate holds (TestPow2Routing holds the rule
// to it on every build, so a test may use it where the gate is false).
func movedPow2(n int) bool { return n >= 8 && n <= 1<<20 && n&(n-1) == 0 }

// rowsThenCols applies row in place to each row of a copy of the
// rows×cols row-major x, then col to each of its columns, gathered into
// a buffer and scattered back.
func rowsThenCols(t *testing.T, x []complex128, rows, cols int, row, col func([]complex128) error) []complex128 {
	t.Helper()
	y := append([]complex128(nil), x...)
	for r := range rows {
		mustRun(t, row(y[r*cols:(r+1)*cols]))
	}
	c := make([]complex128, rows)
	for j := range cols {
		for r := range c {
			c[r] = y[r*cols+j]
		}
		mustRun(t, col(c))
		for r, v := range c {
			y[r*cols+j] = v
		}
	}
	return y
}

// applied runs f on a copy of x.
func applied(t *testing.T, x []complex128, f func([]complex128) error) []complex128 {
	t.Helper()
	y := append([]complex128(nil), x...)
	mustRun(t, f(y))
	return y
}

// TestPow2Routing: where the mixed stages' vector codelets run (amd64
// with AVX2 and FMA), the default plan of a power of two from 8 to 2^20
// points — complex, a real plan's N/2 half, a convolution's segments, a
// spectrogram's frames — is the mixed-radix plan: its Algorithm(), and
// bit for bit fft.NewMixedPlan(n)'s schedules. A plan pinned to a
// kernel stays staged, in a cache entry of its own. Where the gate is
// false nothing moves: every default plan is the pinned staged one.
func TestPow2Routing(t *testing.T) {
	gate := runtime.GOARCH == "amd64" && codeletfft.Acceleration() == "avx2+fma"
	for lg := 0; lg <= 24; lg++ {
		n := 1 << lg
		if got, want := fft.MixedPow2(n), gate && movedPow2(n); got != want {
			t.Errorf("fft.MixedPow2(%d) = %v, want %v", n, got, want)
		}
	}
	for _, n := range []int{12, 1000, 3072} {
		if fft.MixedPow2(n) {
			t.Errorf("fft.MixedPow2(%d) holds for a length that is not a power of two", n)
		}
	}
	for _, n := range []int{4, 8, 64, 1024, 4096, 1 << 16} {
		moved := gate && movedPow2(n)
		pin := codeletfft.WithKernel(fft.AutoKernel(n))
		pinned, err := codeletfft.NewHostPlan(n, pin)
		if err != nil {
			t.Fatal(err)
		}
		if pinned.Algorithm() != "staged" {
			t.Errorf("n=%d: pinned plan runs %q, want staged", n, pinned.Algorithm())
		}
		// The plan the default must be: fwd and inv on a copy.
		algo, fwd, inv := "staged", pinned.Transform, pinned.Inverse
		if moved {
			mp, err := fft.NewMixedPlan(n)
			if err != nil {
				t.Fatal(err)
			}
			algo, fwd, inv = mp.String(), mp.Schedule(false).Run, mp.Schedule(true).Run
		}
		x := noise(n, int64(n)+5)
		wantF, wantI := applied(t, x, fwd), applied(t, x, inv)
		plans := map[string]func(int, ...codeletfft.HostOption) (*codeletfft.HostPlan, error){
			"NewHostPlan": codeletfft.NewHostPlan, "CachedHostPlan": codeletfft.CachedHostPlan,
		}
		for name, mk := range plans {
			h, err := mk(n, codeletfft.WithWorkers(3), codeletfft.WithThreshold(1))
			if err != nil {
				t.Fatal(err)
			}
			if h.Algorithm() != algo || h.Kernel() != fft.AutoKernel(n) {
				t.Errorf("%s(%d): Algorithm() = %q, Kernel() = %v; want %q, %v", name, n, h.Algorithm(), h.Kernel(), algo, fft.AutoKernel(n))
			}
			if !sameBits(applied(t, x, h.Transform), wantF) || !sameBits(applied(t, x, h.Inverse), wantI) {
				t.Errorf("%s(%d) on three workers is not %s bitwise", name, n, algo)
			}
		}
		def, err := codeletfft.CachedHostPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		cpin, err := codeletfft.CachedHostPlan(n, pin)
		if err != nil {
			t.Fatal(err)
		}
		if shared := codeletfft.ForwardSchedule(def) == codeletfft.ForwardSchedule(cpin); shared == moved || cpin.Algorithm() != "staged" {
			t.Errorf("n=%d: default and pinned cached plans share a core: %v (want %v); pinned runs %q", n, shared, !moved, cpin.Algorithm())
		}

		// The real plan of 2n runs the split passes around this plan.
		split, err := fft.NewRealSplit(2 * n)
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, 2*n)
		for j, v := range x {
			r[2*j], r[2*j+1] = real(v), imag(v)
		}
		wantSpec := make([]complex128, split.SpectrumLen())
		for j := range n {
			wantSpec[j] = complex(r[2*j], r[2*j+1])
		}
		mustRun(t, fwd(wantSpec[:n]))
		split.Unpack(wantSpec)
		work := make([]complex128, n)
		split.PreInverse(work, wantSpec)
		mustRun(t, inv(work))
		wantBack := make([]float64, 2*n)
		for j, v := range work {
			wantBack[2*j], wantBack[2*j+1] = real(v), imag(v)
		}
		rp, err := codeletfft.NewRealPlan(2 * n)
		if err != nil {
			t.Fatal(err)
		}
		spec, back := make([]complex128, rp.SpectrumLen()), make([]float64, 2*n)
		mustRun(t, rp.Transform(spec, r))
		mustRun(t, rp.Inverse(back, wantSpec))
		if rp.Algorithm() != "real+"+algo || !sameBits(spec, wantSpec) || !sameBits(realParts(back), realParts(wantBack)) {
			t.Errorf("NewRealPlan(%d) = %q is not the split around %s bitwise", 2*n, rp.Algorithm(), algo)
		}

		// A spectrogram's frames, hop n/2 over 2n samples.
		sp, err := codeletfft.NewSTFTPlan(n, n/2, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames := make([][]complex128, sp.NumFrames(2*n))
		for f := range frames {
			frames[f] = make([]complex128, n)
		}
		mustRun(t, sp.Transform(frames, r))
		for f, got := range frames {
			z := make([]complex128, n)
			for i := range z {
				z[i] = complex(r[f*n/2+i], 0)
			}
			if a := codeletfft.STFTFramePlan(sp).Algorithm(); a != algo || !sameBits(got, applied(t, z, fwd)) {
				t.Errorf("STFT frame %d of %d points on %q is not %s bitwise", f, n, a, algo)
			}
		}
	}

	// A convolution's segments: K = 255 convolves at M = 1024.
	cp, err := codeletfft.NewConvPlan(1<<12, 255)
	if err != nil {
		t.Fatal(err)
	}
	seg, m := codeletfft.ConvSegmentPlan(cp), cp.SegmentLen()
	want := "staged"
	if gate && movedPow2(m) {
		mp, err := fft.NewMixedPlan(m)
		if err != nil {
			t.Fatal(err)
		}
		want = mp.String()
		x := noise(m, 7)
		if !sameBits(applied(t, x, seg.Transform), applied(t, x, mp.Schedule(false).Run)) {
			t.Errorf("the M = %d segment plan is not %s bitwise", m, want)
		}
	}
	if m != 1024 || seg.Algorithm() != want {
		t.Errorf("K = 255 segments: M = %d on %q, want 1024 on %q", m, seg.Algorithm(), want)
	}
}

// countObserver counts engine telemetry through the facade option.
type countObserver struct {
	batches, passes atomic.Int64
	occupancy       atomic.Int64
}

func (o *countObserver) ObserveBatch(batch, n int, d time.Duration) {
	o.batches.Add(1)
	o.occupancy.Add(int64(batch))
}

func (o *countObserver) ObservePass(pass string, d time.Duration) { o.passes.Add(1) }

func TestWithObserverThreadsTelemetry(t *testing.T) {
	const n, batchSize = 256, 4
	obs := new(countObserver)
	h, err := codeletfft.NewHostPlan(n,
		codeletfft.WithWorkers(4),
		codeletfft.WithThreshold(1),
		codeletfft.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]complex128, batchSize)
	for i := range batch {
		batch[i] = noise(n, int64(i))
	}
	_ = h.TransformBatch(batch)
	if got := obs.batches.Load(); got != 1 {
		t.Fatalf("ObserveBatch calls = %d, want 1", got)
	}
	if got := obs.occupancy.Load(); got != batchSize {
		t.Fatalf("occupancy = %d, want %d", got, batchSize)
	}
	if obs.passes.Load() == 0 {
		t.Fatal("no passes observed")
	}
}

func TestPlanCacheStats(t *testing.T) {
	h0, m0 := codeletfft.PlanCacheStats()
	const n = 1 << 9 // a size no other test caches with this kernel
	soa2 := codeletfft.WithKernel(codeletfft.KernelSoARadix2)
	if _, err := codeletfft.CachedHostPlan(n, soa2); err != nil {
		t.Fatal(err)
	}
	if _, err := codeletfft.CachedHostPlan(n, soa2); err != nil {
		t.Fatal(err)
	}
	h1, m1 := codeletfft.PlanCacheStats()
	if m1-m0 < 1 {
		t.Fatalf("misses went %d -> %d, want at least one new miss", m0, m1)
	}
	if h1-h0 < 1 {
		t.Fatalf("hits went %d -> %d, want at least one new hit", h0, h1)
	}
}
