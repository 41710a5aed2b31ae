package host

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"codeletfft/internal/fft"
)

// noErr fails t on a non-nil error.
func noErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func noise(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// sameBits reports whether a and b are bitwise-identical complex slices.
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

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if v := math.Hypot(real(d), imag(d)); v > m {
			m = v
		}
	}
	return m
}

func TestDefaults(t *testing.T) {
	e := New(Config{})
	if e.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d, want GOMAXPROCS = %d", e.Workers(), runtime.GOMAXPROCS(0))
	}
	if e.Threshold() != DefaultThreshold {
		t.Errorf("Threshold = %d, want %d", e.Threshold(), DefaultThreshold)
	}
	e = New(Config{Workers: 3, Threshold: 1})
	if e.Workers() != 3 || e.Threshold() != 1 {
		t.Errorf("explicit config not honored: workers=%d threshold=%d", e.Workers(), e.Threshold())
	}
}

// TestParallelMatchesSerial exercises the full (N, P, workers) matrix with
// the threshold forced to 1 so the parallel path runs even at tiny sizes,
// and demands bitwise equality with the serial path.
func TestParallelMatchesSerial(t *testing.T) {
	for _, logN := range []int{1, 3, 6, 10, 14} {
		n := 1 << logN
		for _, p := range []int{2, 8, 64} {
			if p > n {
				continue
			}
			pl, err := fft.NewPlan(n, p)
			if err != nil {
				t.Fatal(err)
			}
			w := fft.Twiddles(n)
			x := noise(n, int64(n+p))
			want := append([]complex128(nil), x...)
			pl.Transform(want, w)
			for _, workers := range []int{1, 2, 3, 7, 16} {
				e := New(Config{Workers: workers, Threshold: 1})
				got := append([]complex128(nil), x...)
				noErr(t, e.Run(pl.Schedule(w, fft.KernelRadix2, false), got))
				if !sameBits(got, want) {
					t.Errorf("N=%d P=%d workers=%d: parallel != serial (max err %g)",
						n, p, workers, maxErr(got, want))
				}
			}
		}
	}
}

func TestParallelInverseMatchesSerial(t *testing.T) {
	n := 1 << 12
	pl, err := fft.NewPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	x := noise(n, 9)
	want := append([]complex128(nil), x...)
	pl.Transform(want, w)
	pl.InverseTransform(want, w)

	e := New(Config{Workers: 4, Threshold: 1})
	got := append([]complex128(nil), x...)
	noErr(t, e.Run(pl.Schedule(w, fft.KernelRadix2, false), got))
	noErr(t, e.Run(pl.Schedule(w, fft.KernelRadix2, true), got))
	if !sameBits(got, want) {
		t.Fatalf("parallel round trip != serial round trip (max err %g)", maxErr(got, want))
	}
	if e := maxErr(got, x); e > 1e-12 {
		t.Fatalf("round trip error %g", e)
	}
}

// TestThresholdFallback checks that transforms below the threshold take
// the serial path (observable only through correctness here; the fallback
// branch is the first statement of Run).
func TestThresholdFallback(t *testing.T) {
	n := 256
	pl, err := fft.NewPlan(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	x := noise(n, 4)
	want := append([]complex128(nil), x...)
	pl.Transform(want, w)
	e := New(Config{Workers: 8}) // DefaultThreshold ≫ 256
	got := append([]complex128(nil), x...)
	noErr(t, e.Run(pl.Schedule(w, fft.KernelRadix2, false), got))
	if !sameBits(got, want) {
		t.Fatal("serial fallback diverged from serial path")
	}
}

func TestParallel2DMatchesSerial(t *testing.T) {
	for _, shape := range [][2]int{{4, 8}, {32, 64}, {128, 32}, {64, 64}} {
		rows, cols := shape[0], shape[1]
		p2, err := fft.NewPlan2D(rows, cols, 16)
		if err != nil {
			t.Fatal(err)
		}
		axis := func(n int, inverse bool) *fft.Schedule {
			pl, err := fft.NewPlan(n, min(16, n))
			if err != nil {
				t.Fatal(err)
			}
			return pl.Schedule(fft.Twiddles(n), fft.KernelRadix2, inverse)
		}
		fwd := fft.RowCol(axis(cols, false), axis(rows, false))
		inv := fft.RowCol(axis(cols, true), axis(rows, true))
		x := noise(rows*cols, int64(rows))
		want := append([]complex128(nil), x...)
		noErr(t, p2.Transform(want))
		for _, workers := range []int{1, 3, 8} {
			e := New(Config{Workers: workers, Threshold: 1})
			got := append([]complex128(nil), x...)
			noErr(t, e.Run(fwd, got))
			if !sameBits(got, want) {
				t.Errorf("%dx%d workers=%d: parallel 2-D != serial (max err %g)",
					rows, cols, workers, maxErr(got, want))
			}
			noErr(t, e.Run(inv, got))
			if err := maxErr(got, x); err > 1e-12 {
				t.Errorf("%dx%d workers=%d: 2-D round trip error %g", rows, cols, workers, err)
			}
		}
	}
}

// TestEngineConcurrentUse runs many transforms through one Engine and one
// Plan simultaneously on distinct data arrays — the contract the engine
// documents, and the scenario `go test -race` gates.
func TestEngineConcurrentUse(t *testing.T) {
	n := 1 << 11
	pl, err := fft.NewPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	e := New(Config{Workers: 4, Threshold: 1})

	x := noise(n, 17)
	want := append([]complex128(nil), x...)
	pl.Transform(want, w)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				got := append([]complex128(nil), x...)
				noErr(t, e.Run(pl.Schedule(w, fft.KernelRadix2, false), got))
				if !sameBits(got, want) {
					errs <- errFailed
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for range errs {
		t.Fatal("concurrent Transform diverged from serial result")
	}
}

var errFailed = &concurrencyError{}

type concurrencyError struct{}

func (*concurrencyError) Error() string { return "concurrent transform mismatch" }

// TestParallelBitReverse checks the sharded permutation pass directly
// against the serial one across worker counts (including workers > n).
func TestParallelBitReverse(t *testing.T) {
	for _, n := range []int{2, 16, 1024} {
		pl, err := fft.NewPlan(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		bitrev := pl.Schedule(fft.Twiddles(n), fft.KernelRadix2, false).Passes[0]
		if bitrev.Label != PassBitRev {
			t.Fatalf("first pass is %q, want %q", bitrev.Label, PassBitRev)
		}
		x := noise(n, int64(n))
		want := append([]complex128(nil), x...)
		fft.BitReversePermute(want)
		for _, workers := range []int{1, 2, 5, 2 * n} {
			got := append([]complex128(nil), x...)
			st := &fft.State{Data: got}
			Do(workers, &bitrev, st)
			if !sameBits(got, want) {
				t.Errorf("n=%d workers=%d: parallel bit-reverse wrong", n, workers)
			}
		}
	}
}
