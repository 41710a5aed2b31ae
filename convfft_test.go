// Property tests of the public convolution API: overlap-save Convolve
// against the O(N·K) direct reference across power-of-two, composite,
// and prime shapes; the edge regimes (kernel longer than a segment,
// kernel longer than the signal); CrossCorrelate's lag identity; and
// the streaming filter's equivalence to batch convolution under
// arbitrary chunkings with zero steady-state allocations.
package codeletfft_test

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"codeletfft"
	"codeletfft/internal/fft"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxRelErr(got, want []complex128) float64 {
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, cmplx.Abs(v))
	}
	if scale == 0 {
		scale = 1
	}
	var m float64
	for i := range got {
		m = math.Max(m, cmplx.Abs(got[i]-want[i]))
	}
	return m / scale
}

// TestConvolveMatchesDirect is the acceptance property: overlap-save
// convolution through the batched engine agrees with the direct O(N·K)
// reference to 1e-9 relative error across signal-length regimes —
// power of two, composite (mixed-radix), prime (Bluestein-planned
// lengths), single-sample, and both kernel-dominates cases.
func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, k int }{
		{1 << 10, 31},      // pow2 signal, small kernel
		{360, 25},          // composite
		{257, 13},          // prime
		{1, 1},             // degenerate minimum
		{2000, 1},          // identity-like kernel length
		{500, 400},         // kernel comparable to the signal
		{100, 300},         // kernel longer than the signal
		{1 << 12, 1 << 10}, // kernel far beyond one default segment
	} {
		p, err := codeletfft.NewConvPlan(tc.n, tc.k)
		if err != nil {
			t.Fatalf("NewConvPlan(%d, %d): %v", tc.n, tc.k, err)
		}
		x := randComplex(rng, tc.n)
		h := randComplex(rng, tc.k)
		got := make([]complex128, p.OutLen())
		if err := p.Convolve(got, x, h); err != nil {
			t.Fatalf("Convolve(%d, %d): %v", tc.n, tc.k, err)
		}
		want := make([]complex128, tc.n+tc.k-1)
		fft.DirectConvolve(want, x, h)
		if rel := maxRelErr(got, want); rel > 1e-9 {
			t.Fatalf("n=%d k=%d: Convolve diverged from direct by rel %g", tc.n, tc.k, rel)
		}
	}
}

// TestCrossCorrelate pins the lag identity: output position K-1+ℓ holds
// Σ_j x[j]·conj(h[j-ℓ]), with zero lag at dst[K-1].
func TestCrossCorrelate(t *testing.T) {
	const n, k = 300, 17
	rng := rand.New(rand.NewSource(23))
	x := randComplex(rng, n)
	h := randComplex(rng, k)
	p, err := codeletfft.NewConvPlan(n, k)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, p.OutLen())
	if err := p.CrossCorrelate(got, x, h); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n+k-1)
	for lag := -(k - 1); lag < n; lag++ {
		var sum complex128
		for j := range x {
			if t := j - lag; t >= 0 && t < k {
				sum += x[j] * cmplx.Conj(h[t])
			}
		}
		want[k-1+lag] = sum
	}
	if rel := maxRelErr(got, want); rel > 1e-9 {
		t.Fatalf("CrossCorrelate diverged from the lag sum by rel %g", rel)
	}
	// Self-correlation peaks at zero lag (dst[K-1]).
	self, err := codeletfft.NewConvPlan(k, k)
	if err != nil {
		t.Fatal(err)
	}
	auto := make([]complex128, self.OutLen())
	if err := self.CrossCorrelate(auto, h, h); err != nil {
		t.Fatal(err)
	}
	peak := cmplx.Abs(auto[k-1])
	for i, v := range auto {
		if i != k-1 && cmplx.Abs(v) > peak+1e-9 {
			t.Fatalf("autocorrelation peak at lag %d, want zero lag (index %d)", i-(k-1), k-1)
		}
	}
}

// TestFilterStreamMatchesConvolve feeds a signal through the streaming
// filter in deliberately awkward chunk sizes — smaller than the kernel,
// larger than a segment's fresh count, and ragged at the end — and
// checks the output equals the first N samples of the batch
// convolution. A Reset mid-life must restart the history cleanly.
func TestFilterStreamMatchesConvolve(t *testing.T) {
	const n, k = 3000, 41
	rng := rand.New(rand.NewSource(5))
	x := randComplex(rng, n)
	h := randComplex(rng, k)
	p, err := codeletfft.NewConvPlan(n, k)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]complex128, p.OutLen())
	if err := p.Convolve(full, x, h); err != nil {
		t.Fatal(err)
	}
	f, err := p.FilterStream(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range [][]int{
		{n},                   // one shot
		{7, 13, 980, 2000},    // mixed sizes, one above S
		{1, 1, 1, 37, n - 40}, // sample-at-a-time start
	} {
		f.Reset()
		got := make([]complex128, 0, n)
		off := 0
		for _, c := range chunks {
			dst := make([]complex128, c)
			if err := f.Process(dst, x[off:off+c]); err != nil {
				t.Fatal(err)
			}
			got = append(got, dst...)
			off += c
		}
		if off != n {
			t.Fatalf("chunking %v covers %d samples, want %d", chunks, off, n)
		}
		if rel := maxRelErr(got, full[:n]); rel > 1e-9 {
			t.Fatalf("chunking %v: stream diverged from batch by rel %g", chunks, rel)
		}
	}

	// In-place filtering: dst and src may be the same slice.
	f.Reset()
	inPlace := append([]complex128(nil), x...)
	if err := f.Process(inPlace, inPlace); err != nil {
		t.Fatal(err)
	}
	if rel := maxRelErr(inPlace, full[:n]); rel > 1e-9 {
		t.Fatalf("in-place stream diverged from batch by rel %g", rel)
	}
}

// TestFilterStreamSteadyStateAllocs: after construction, Process
// allocates nothing.
func TestFilterStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	p, err := codeletfft.NewConvPlan(1<<12, 33, codeletfft.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	h := randComplex(rng, 33)
	f, err := p.FilterStream(h)
	if err != nil {
		t.Fatal(err)
	}
	buf := randComplex(rng, 512)
	if err := f.Process(buf, buf); err != nil { // warm the engine
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := f.Process(buf, buf); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Fatalf("StreamFilter.Process allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// TestConvPlanErrors: degenerate shapes error with the sentinel, and
// wrong-length arguments panic with ErrLengthMismatch.
func TestConvPlanErrors(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{0, 4}, {4, 0}, {-3, 2}} {
		if _, err := codeletfft.NewConvPlan(tc.n, tc.k); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
			t.Fatalf("NewConvPlan(%d, %d) err = %v, want ErrUnsupportedLength", tc.n, tc.k, err)
		}
	}
	p, err := codeletfft.NewConvPlan(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Convolve with a short output did not panic")
		} else if err, ok := r.(error); !ok || !errors.Is(err, codeletfft.ErrLengthMismatch) {
			t.Fatalf("panic value %v, want an error wrapping ErrLengthMismatch", r)
		}
	}()
	_ = p.Convolve(make([]complex128, 10), make([]complex128, 100), make([]complex128, 5))
}
