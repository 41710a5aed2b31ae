// Cross-kernel parity suite (ISSUE 5): every kernel family must compute
// the same DFT. The normalization under which outputs are compared is
// documented at each check:
//
//   - vs the reference DFT: relative ∞-norm error ≤ 1e-9 for every N in
//     2^4..2^12 and every kernel;
//   - across kernels: Radix2/Radix4/SplitRadix agree pairwise to the
//     same 1e-9 relative tolerance (different floating-point
//     factorizations round differently, so cross-kernel equality is
//     to rounding, not bitwise);
//   - within one kernel: serial, scratch-reusing, and parallel host
//     execution are bitwise identical (see also host's kernel tests),
//     and KernelRadix2/KernelAuto are bitwise identical to the legacy
//     Transform path.
package fft_test

import (
	"math"
	"testing"

	"codeletfft/internal/fft"
)

// lcg fills a deterministic pseudo-random complex slice without pulling
// in math/rand (keeps fuzz/corpus inputs reproducible byte-for-byte).
func lcgComplex(n int, seed uint64) []complex128 {
	x := make([]complex128, n)
	s := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int32(s>>32)) / float64(1<<31)
	}
	for i := range x {
		x[i] = complex(next(), next())
	}
	return x
}

// maxRelError returns the ∞-norm of (got−want) divided by the ∞-norm of
// want — the documented cross-kernel comparison normalization.
func maxRelError(got, want []complex128) float64 {
	var diff, norm float64
	for i := range got {
		d := got[i] - want[i]
		if v := math.Hypot(real(d), imag(d)); v > diff {
			diff = v
		}
		if v := math.Hypot(real(want[i]), imag(want[i])); v > norm {
			norm = v
		}
	}
	if norm == 0 {
		return diff
	}
	return diff / norm
}

func equalBits(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestKernelParityAgainstDFT is the satellite's core matrix: for every N
// in 2^4..2^12, several task sizes, and every concrete kernel, the
// staged transform matches the independent recursive FFT to 1e-9
// relative, and all kernels match each other to the same tolerance.
func TestKernelParityAgainstDFT(t *testing.T) {
	for lg := 4; lg <= 12; lg++ {
		n := 1 << lg
		x := lcgComplex(n, uint64(lg))
		want := fft.Recursive(x)
		for _, p := range []int{2, 8, 64, n} {
			if p > n {
				continue
			}
			pl, err := fft.NewPlan(n, p)
			if err != nil {
				t.Fatalf("NewPlan(%d,%d): %v", n, p, err)
			}
			w := fft.Twiddles(n)
			outs := map[fft.Kernel][]complex128{}
			for _, k := range fft.ConcreteKernels() {
				data := append([]complex128(nil), x...)
				pl.TransformKernel(data, w, k)
				if e := maxRelError(data, want); e > 1e-9 {
					t.Errorf("N=2^%d P=%d %v: error vs DFT %g", lg, p, k, e)
				}
				outs[k] = data
			}
			ks := fft.ConcreteKernels()
			for i := 0; i < len(ks); i++ {
				for j := i + 1; j < len(ks); j++ {
					if e := maxRelError(outs[ks[i]], outs[ks[j]]); e > 1e-9 {
						t.Errorf("N=2^%d P=%d: %v vs %v error %g", lg, p, ks[i], ks[j], e)
					}
				}
			}
		}
	}
}

// TestKernelRadix2MatchesLegacyBitwise pins the back-compat contract:
// KernelRadix2 and KernelAuto at this layer are bit-for-bit the legacy
// Transform path, forward and inverse.
func TestKernelRadix2MatchesLegacyBitwise(t *testing.T) {
	for _, lg := range []int{4, 7, 10, 13} {
		n := 1 << lg
		for _, p := range []int{8, 64} {
			if p > n {
				continue
			}
			pl, err := fft.NewPlan(n, p)
			if err != nil {
				t.Fatal(err)
			}
			w := fft.Twiddles(n)
			x := lcgComplex(n, uint64(n))
			legacy := append([]complex128(nil), x...)
			pl.Transform(legacy, w)
			for _, k := range []fft.Kernel{fft.KernelRadix2, fft.KernelAuto} {
				got := append([]complex128(nil), x...)
				pl.TransformKernel(got, w, k)
				if !equalBits(got, legacy) {
					t.Fatalf("N=2^%d P=%d %v: forward not bitwise legacy", lg, p, k)
				}
				pl.Schedule(w, k, true).Run(got)
				back := append([]complex128(nil), legacy...)
				pl.InverseTransform(back, w)
				if !equalBits(got, back) {
					t.Fatalf("N=2^%d P=%d %v: inverse not bitwise legacy", lg, p, k)
				}
			}
		}
	}
}

// TestKernelRoundTrip: forward + inverse under each kernel returns the
// input, and the run is deterministic (two runs are bitwise identical).
func TestKernelRoundTrip(t *testing.T) {
	for _, lg := range []int{4, 6, 9, 12} {
		n := 1 << lg
		for _, p := range []int{4, 64} {
			if p > n {
				continue
			}
			pl, err := fft.NewPlan(n, p)
			if err != nil {
				t.Fatal(err)
			}
			w := fft.Twiddles(n)
			for _, k := range fft.ConcreteKernels() {
				x := lcgComplex(n, 7)
				a := append([]complex128(nil), x...)
				pl.TransformKernel(a, w, k)

				// Determinism: a second run draws its buffers from the pools.
				b := append([]complex128(nil), x...)
				pl.TransformKernel(b, w, k)
				if !equalBits(a, b) {
					t.Fatalf("N=2^%d P=%d %v: nondeterministic forward", lg, p, k)
				}

				pl.Schedule(w, k, true).Run(a)
				if e := maxRelError(a, x); e > 1e-9 {
					t.Fatalf("N=2^%d P=%d %v: round-trip error %g", lg, p, k, e)
				}
			}
		}
	}
}

// TestRealPlanKernels checks the real-input path under each kernel
// against the complex transform of the widened signal.
func TestRealPlanKernels(t *testing.T) {
	for _, n := range []int{16, 256, 4096} {
		rp, err := fft.NewRealPlan(n, 64)
		if err != nil {
			t.Fatal(err)
		}
		z := lcgComplex(n, uint64(n)+3)
		x := make([]float64, n)
		wide := make([]complex128, n)
		for i := range x {
			x[i] = real(z[i])
			wide[i] = complex(x[i], 0)
		}
		want := fft.Recursive(wide)
		for _, k := range fft.ConcreteKernels() {
			spec := make([]complex128, rp.SpectrumLen())
			rp.TransformKernelWith(spec, x, k, nil)
			if e := maxRelError(spec, want[:n/2+1]); e > 1e-9 {
				t.Errorf("N=%d %v: RFFT error %g", n, k, e)
			}
			back := make([]float64, n)
			work := make([]complex128, n/2)
			rp.PreInverse(work, spec)
			rp.Half.Schedule(rp.WHalf, k, true).Run(work)
			rp.PostInverse(back, work)
			for i := range back {
				if d := math.Abs(back[i] - x[i]); d > 1e-9 {
					t.Fatalf("N=%d %v: real round trip diverged at %d by %g", n, k, i, d)
				}
			}
		}
	}
}

// TestPlan2DKernels checks the 2-D row-column path under each kernel
// against the radix-2 2-D reference.
func TestPlan2DKernels(t *testing.T) {
	p2, err := fft.NewPlan2D(16, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := lcgComplex(16*64, 11)
	want := append([]complex128(nil), x...)
	p2.Transform(want)
	for _, k := range fft.ConcreteKernels() {
		got := append([]complex128(nil), x...)
		p2.Schedule(k, false).Run(got)
		if e := maxRelError(got, want); e > 1e-9 {
			t.Errorf("%v: 2-D error vs radix-2 %g", k, e)
		}
		p2.Schedule(k, true).Run(got)
		if e := maxRelError(got, x); e > 1e-9 {
			t.Errorf("%v: 2-D round-trip error %g", k, e)
		}
	}
}

// TestKernelStringParse round-trips names through ParseKernel and
// rejects junk.
func TestKernelStringParse(t *testing.T) {
	for _, k := range append(fft.ConcreteKernels(), fft.KernelAuto) {
		got, err := fft.ParseKernel(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKernel(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := fft.ParseKernel("Split-Radix"); err != nil || k != fft.KernelSplitRadix {
		t.Fatalf("ParseKernel(Split-Radix) = %v, %v", k, err)
	}
	if _, err := fft.ParseKernel("radix8"); err == nil {
		t.Fatal("ParseKernel(radix8) should fail")
	}
	if fft.KernelAuto.Concrete() != fft.KernelRadix2 {
		t.Fatal("Auto must resolve to radix2 at the math layer")
	}
}

// FuzzKernelParity fuzzes (input, task size, kernel selector): the
// fuzzed kernel's forward output must match radix-2 within the
// documented 1e-9 relative tolerance, and its forward+inverse round
// trip must return the input. Part of the CI fuzz smoke.
func FuzzKernelParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0))
	f.Add(make([]byte, 256), uint8(5), uint8(1))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 200, 100, 9, 8, 7, 6, 5, 4, 3, 2}, uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, p8, k8 uint8) {
		x, p := fuzzInput(raw, p8)
		if x == nil {
			t.Skip("input too short")
		}
		n := len(x)
		pl, err := fft.NewPlan(n, p)
		if err != nil {
			t.Fatalf("NewPlan(%d, %d): %v", n, p, err)
		}
		w := fft.Twiddles(n)
		kern := fft.ConcreteKernels()[int(k8)%len(fft.ConcreteKernels())]

		want := append([]complex128(nil), x...)
		pl.Transform(want, w)
		got := append([]complex128(nil), x...)
		pl.TransformKernel(got, w, kern)
		if e := maxRelError(got, want); e > 1e-9 {
			t.Fatalf("N=%d P=%d %v: error vs radix-2 %g", n, p, kern, e)
		}
		pl.Schedule(w, kern, true).Run(got)
		if e := maxRelError(got, x); e > 1e-9 {
			t.Fatalf("N=%d P=%d %v: round-trip error %g", n, p, kern, e)
		}
	})
}
