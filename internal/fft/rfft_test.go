package fft_test

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"codeletfft"
	"codeletfft/internal/fft"
)

func realNoise(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func asComplex(x []float64) []complex128 {
	z := make([]complex128, len(x))
	for i, v := range x {
		z[i] = complex(v, 0)
	}
	return z
}

// TestRealPlanMatchesDFT checks the half-spectrum against the O(n²) DFT
// of the same signal widened to complex, across sizes and task sizes
// (including irregular final stages of the half plan).
func TestRealPlanMatchesDFT(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 128, 512, 1024} {
		for _, p := range []int{2, 4, 8, 64} {
			rp, err := fft.NewRealPlan(n, p)
			if err != nil {
				t.Fatalf("NewRealPlan(%d, %d): %v", n, p, err)
			}
			x := realNoise(n, int64(n+p))
			spec := make([]complex128, rp.SpectrumLen())
			noErr(t, rp.Transform(spec, x))
			want := fft.DFT(asComplex(x))
			for k := 0; k <= n/2; k++ {
				d := spec[k] - want[k]
				if math.Hypot(real(d), imag(d)) > 1e-9*float64(n) {
					t.Fatalf("n=%d p=%d bin %d: got %v want %v", n, p, k, spec[k], want[k])
				}
			}
		}
	}
}

// TestRealPlanHermitianEnds checks the structural invariant of a real
// signal's spectrum: the DC and Nyquist bins are exactly real (the
// split pass constructs them with a zero imaginary part, so this is an
// equality, not a tolerance).
func TestRealPlanHermitianEnds(t *testing.T) {
	rp, err := fft.NewRealPlan(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := make([]complex128, rp.SpectrumLen())
	noErr(t, rp.Transform(spec, realNoise(256, 9)))
	if imag(spec[0]) != 0 || imag(spec[128]) != 0 {
		t.Fatalf("DC/Nyquist bins not exactly real: %v, %v", spec[0], spec[128])
	}
}

// TestRealPlanRoundTrip checks Inverse(Transform(x)) == x.
func TestRealPlanRoundTrip(t *testing.T) {
	for _, n := range []int{4, 16, 64, 4096} {
		rp, err := fft.NewRealPlan(n, 64)
		if err != nil {
			t.Fatal(err)
		}
		x := realNoise(n, int64(n))
		spec := make([]complex128, rp.SpectrumLen())
		noErr(t, rp.Transform(spec, x))
		back := make([]float64, n)
		noErr(t, rp.Inverse(back, spec))
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-10 {
				t.Fatalf("n=%d: round trip diverged at %d: %g vs %g", n, i, back[i], x[i])
			}
		}
		// Inverse's half transform is the radix-2 schedule, bit for bit
		// the staged reference Plan.InverseTransform.
		work := make([]complex128, n/2)
		rp.PreInverse(work, spec)
		rp.Half.InverseTransform(work, rp.WHalf)
		back2 := make([]float64, n)
		rp.PostInverse(back2, work)
		for i := range back {
			if math.Float64bits(back[i]) != math.Float64bits(back2[i]) {
				t.Fatalf("Inverse diverged from the staged reference at %d", i)
			}
		}
	}
}

// TestRealPlanLinearity: RFFT(a·x + b·y) == a·RFFT(x) + b·RFFT(y).
func TestRealPlanLinearity(t *testing.T) {
	const n = 512
	rp, err := fft.NewRealPlan(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	x, y := realNoise(n, 1), realNoise(n, 2)
	mixed := make([]float64, n)
	for i := range mixed {
		mixed[i] = 2*x[i] - 3*y[i]
	}
	sx := make([]complex128, rp.SpectrumLen())
	sy := make([]complex128, rp.SpectrumLen())
	sm := make([]complex128, rp.SpectrumLen())
	noErr(t, rp.Transform(sx, x))
	noErr(t, rp.Transform(sy, y))
	noErr(t, rp.Transform(sm, mixed))
	for k := range sm {
		d := sm[k] - (2*sx[k] - 3*sy[k])
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("linearity violated at bin %d: %v", k, d)
		}
	}
}

func TestNewRealPlanRejectsBadShapes(t *testing.T) {
	if _, err := fft.NewRealPlan(100, 4); !errors.Is(err, fft.ErrUnsupportedLength) {
		t.Fatalf("N=100: err = %v, want ErrUnsupportedLength", err)
	}
	if _, err := fft.NewRealPlan(2, 2); err == nil {
		t.Fatal("N=2 accepted; the half transform cannot exist")
	}
	if _, err := fft.NewRealPlan(16, 3); !errors.Is(err, fft.ErrBadTaskSize) {
		t.Fatalf("P=3: err = %v, want ErrBadTaskSize", err)
	}
	// Oversized task sizes are clamped to N/2, not rejected.
	rp, err := fft.NewRealPlan(8, 64)
	if err != nil || rp.Half.P != 4 {
		t.Fatalf("clamp: rp=%+v err=%v", rp, err)
	}
}

// TestRealPlanLengthErrors: wrong-length buffers are returned as an
// error wrapping ErrLengthMismatch, before any buffer is written.
func TestRealPlanLengthErrors(t *testing.T) {
	rp, err := fft.NewRealPlan(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec []complex128
		x    []float64
		call func(spec []complex128, x []float64) error
	}{
		{"short spectrum", make([]complex128, 3), make([]float64, 16), rp.Transform},
		{"short input", make([]complex128, 9), make([]float64, 15), rp.Transform},
		{"short output", make([]complex128, 9), make([]float64, 8), func(spec []complex128, x []float64) error { return rp.Inverse(x, spec) }},
		{"short inverse spectrum", make([]complex128, 8), make([]float64, 16), func(spec []complex128, x []float64) error { return rp.Inverse(x, spec) }},
	} {
		for i := range tc.spec {
			tc.spec[i] = complex(float64(i), 1)
		}
		for i := range tc.x {
			tc.x[i] = float64(i) + 0.5
		}
		spec, x := slices.Clone(tc.spec), slices.Clone(tc.x)
		if err := tc.call(tc.spec, tc.x); !errors.Is(err, fft.ErrLengthMismatch) {
			t.Fatalf("%s: err = %v, want ErrLengthMismatch", tc.name, err)
		}
		if !slices.Equal(spec, tc.spec) || !slices.Equal(x, tc.x) {
			t.Fatalf("%s: a buffer was written before the length error", tc.name)
		}
	}
}

// TestRealErrorBudget holds the facade's default RealPlan — the split
// passes around the N/2-point default plan, which fft.MixedPow2 may put
// on the mixed stages — to checkErrBudget's 2·ε·log₂N at every power of
// two N ≤ 4096 and at 2^16. The forward takes a real signal, its oracle
// the DFT of that signal as a complex one; the inverse takes a
// Hermitian signal — what RealPlan.Inverse reads as a half spectrum —
// whose inverse DFT is real.
func TestRealErrorBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("no shared state to race on; the instrumented oracle takes ten times as long")
	}
	check := func(n int) {
		t.Helper()
		rp, err := codeletfft.NewRealPlan(n, codeletfft.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		spec, sig := make([]complex128, rp.SpectrumLen()), make([]float64, n)
		fwd := func(z []complex128) error {
			for i, v := range z {
				sig[i] = real(v)
			}
			if err := rp.Transform(spec, sig); err != nil {
				return err
			}
			copy(z, spec)
			for k := n/2 + 1; k < n; k++ {
				z[k] = cmplx.Conj(spec[n-k])
			}
			return nil
		}
		inv := func(z []complex128) error {
			if err := rp.Inverse(sig, z[:len(spec)]); err != nil {
				return err
			}
			for i, v := range sig {
				z[i] = complex(v, 0)
			}
			return nil
		}
		r := randSignal(n, int64(n))
		re, herm := make([]complex128, n), make([]complex128, n)
		for i, v := range r {
			re[i] = complex(real(v), 0)
		}
		herm[0], herm[n/2] = complex(real(r[0]), 0), complex(real(r[n/2]), 0)
		for j := 1; j < n/2; j++ {
			herm[j], herm[n-j] = r[j], cmplx.Conj(r[j])
		}
		checkErrBudget(t, rp.Algorithm(), re, 32, n, fwd, nil)
		checkErrBudget(t, rp.Algorithm(), herm, 32, n, nil, inv)
	}
	for n := 4; n <= 4096; n *= 2 {
		check(n)
	}
	check(1 << 16)
}
