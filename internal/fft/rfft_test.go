package fft_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

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
			rp.Transform(spec, x)
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
	rp.Transform(spec, realNoise(256, 9))
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
		rp.Transform(spec, x)
		back := make([]float64, n)
		rp.Inverse(back, spec)
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
	rp.Transform(sx, x)
	rp.Transform(sy, y)
	rp.Transform(sm, mixed)
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

// TestRealPlanPanicsWrapErrLengthMismatch pins the documented panic
// contract: wrong-length buffers panic with an error value satisfying
// errors.Is(v, ErrLengthMismatch).
func TestRealPlanPanicsWrapErrLengthMismatch(t *testing.T) {
	rp, err := fft.NewRealPlan(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	mustLengthPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			v := recover()
			e, ok := v.(error)
			if !ok || !errors.Is(e, fft.ErrLengthMismatch) {
				t.Fatalf("%s: panic value %v, want error wrapping ErrLengthMismatch", name, v)
			}
		}()
		fn()
	}
	mustLengthPanic("short spectrum", func() {
		rp.Transform(make([]complex128, 3), make([]float64, 16))
	})
	mustLengthPanic("short input", func() {
		rp.Transform(make([]complex128, 9), make([]float64, 15))
	})
	mustLengthPanic("short output", func() {
		rp.Inverse(make([]float64, 8), make([]complex128, 9))
	})
}
