// Property tests of the public convolution API: overlap-save Convolve
// against the O(N·K) direct reference across power-of-two, composite,
// and prime shapes; the edge regimes (kernel longer than a segment,
// kernel longer than the signal); CrossCorrelate's lag identity; and
// the streaming filter's equivalence to batch convolution under
// arbitrary chunkings with zero steady-state allocations.
package codeletfft_test

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"time"

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
// convolution on the host engine agrees with the direct O(N·K)
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

// TestConvScheduleConformance runs the convolution schedule with the
// serial cut at one element on one, two and four workers — the
// segments pass sharded, each unit's filter schedule nested on the same
// pool — and demands the serial plan's bits from Convolve,
// CrossCorrelate and a stream fed in two calls. 3000×8000 has three
// 12500-point segments, fewer than four workers, so idle workers shard
// the nested runs too. Four goroutines then share the four-worker plan,
// and with it the plan's pooled runs and segment buffers.
func TestConvScheduleConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range [][2]int{{1, 1}, {257, 13}, {3000, 41}, {500, 400}, {1 << 14, 255}, {3000, 8000}} {
		n, k := sh[0], sh[1]
		x, h := randComplex(rng, n), randComplex(rng, k)
		run := func(p *codeletfft.ConvPlan) [3][]complex128 {
			var out [3][]complex128
			for i, f := range []func(dst, x, h []complex128) error{p.Convolve, p.CrossCorrelate} {
				out[i] = make([]complex128, p.OutLen())
				if err := f(out[i], x, h); err != nil {
					t.Fatal(err)
				}
			}
			f, err := p.FilterStream(h)
			if err != nil {
				t.Fatal(err)
			}
			out[2] = make([]complex128, n)
			for _, c := range [][2]int{{0, n / 3}, {n / 3, n}} {
				if err := f.Process(out[2][c[0]:c[1]], x[c[0]:c[1]]); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		serial, err := codeletfft.NewConvPlan(n, k, codeletfft.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want := run(serial)
		for _, w := range []int{1, 2, 4} {
			p, err := codeletfft.NewConvPlan(n, k, codeletfft.WithWorkers(w), codeletfft.WithThreshold(1))
			if err != nil {
				t.Fatal(err)
			}
			got := run(p)
			for i, name := range []string{"Convolve", "CrossCorrelate", "StreamFilter"} {
				if !sameBits(got[i], want[i]) {
					t.Errorf("%dx%d (M=%d, %d segments) on %d workers: %s differs from the serial run",
						n, k, p.SegmentLen(), p.Segments(), w, name)
				}
			}
			if w != 4 {
				continue
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]complex128, p.OutLen())
					if err := p.Convolve(dst, x, h); err != nil || !sameBits(dst, want[0]) {
						t.Errorf("%dx%d: a concurrent Convolve returned %v or other bits than the serial run", n, k, err)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestConvPlanErrors: degenerate shapes, and shapes whose output
// length or 4·K passes what an int holds, error with the sentinel
// (wrong-length buffers: TestLengthErrorsLeaveBuffersUntouched). Each
// call runs on its own goroutine under a deadline, so a planner that
// spins fails the test instead of stalling the suite.
func TestConvPlanErrors(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 4}, {4, 0}, {-3, 2},
		{math.MaxInt, 2}, {2, math.MaxInt / 2}, {math.MaxInt / 2, math.MaxInt / 2},
		{2, math.MaxInt / 8},
	} {
		errc := make(chan error, 1)
		go func() {
			_, err := codeletfft.NewConvPlan(tc.n, tc.k)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, codeletfft.ErrUnsupportedLength) {
				t.Fatalf("NewConvPlan(%d, %d) err = %v, want ErrUnsupportedLength", tc.n, tc.k, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("NewConvPlan(%d, %d) did not return within 5s", tc.n, tc.k)
		}
	}
}

// dd is a double-double accumulator: the sum is hi + lo.
type dd struct{ hi, lo float64 }

// addProd adds a·b: the product's rounding error comes from an FMA, the
// sum's from TwoSum, and both gather in lo.
func (d *dd) addProd(a, b float64) {
	p := a * b
	e := math.FMA(a, b, -p)
	s := d.hi + p
	v := s - d.hi
	d.hi, d.lo = s, d.lo+(d.hi-(s-v))+(p-v)+e
}

// ddConvolve is the direct linear convolution Σ_j x[j]·h[i−j] with
// every product and sum carried in double-double and rounded once: an
// oracle whose error is far below the FFT path's.
func ddConvolve(x, h []complex128) []complex128 {
	dst := make([]complex128, len(x)+len(h)-1)
	for i := range dst {
		var re, im dd
		for j := max(0, i-len(h)+1); j <= min(i, len(x)-1); j++ {
			a, b := x[j], h[i-j]
			re.addProd(real(a), real(b))
			re.addProd(-imag(a), imag(b))
			im.addProd(real(a), imag(b))
			im.addProd(imag(a), real(b))
		}
		dst[i] = complex(re.hi+re.lo, im.hi+im.lo)
	}
	return dst
}

// TestConvErrorBudget holds Convolve and CrossCorrelate to
// ‖ŷ − y‖∞ ≤ c·ε·log₂M·‖x‖₂·‖h‖₂ against the double-double direct
// convolution, M the segment length, with c = 0.05. The shapes are
// 2^12 samples against K = 70, 84, 251, 700 and 1100, whose segment
// lengths moved off 7-smooth lengths onto Bluestein's rule (280 → 300,
// 336 → 400, 1008 → 1024, 2800 → 2880, 4410 → 4500), and K = 1, 63,
// 255 and 1000, whose did not. The worst c measured is 0.0165 (K = 70,
// M = 300; 0.0150 at K = 84 on the 7-smooth lengths). It is small
// because ‖x‖₂ is the whole signal's, √(N/M) times a segment's.
func TestConvErrorBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("no shared state to race on; the double-double oracle takes ten times as long")
	}
	const n, c = 1 << 12, 0.05
	rng := rand.New(rand.NewSource(43))
	norm := func(v []complex128) float64 {
		var s float64
		for _, z := range v {
			s += real(z)*real(z) + imag(z)*imag(z)
		}
		return math.Sqrt(s)
	}
	worst := 0.0
	for _, k := range []int{70, 84, 251, 700, 1100, 1, 63, 255, 1000} {
		p, err := codeletfft.NewConvPlan(n, k, codeletfft.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		x, h := randComplex(rng, n), randComplex(rng, k)
		rev := make([]complex128, k) // CrossCorrelate is Convolve by conj(h) reversed
		for i, v := range h {
			rev[k-1-i] = cmplx.Conj(v)
		}
		unit := 0x1p-52 * math.Log2(float64(p.SegmentLen())) * norm(x) * norm(h)
		for _, way := range []struct {
			name string
			run  func(dst, x, h []complex128) error
			want []complex128
		}{
			{"Convolve", p.Convolve, ddConvolve(x, h)},
			{"CrossCorrelate", p.CrossCorrelate, ddConvolve(x, rev)},
		} {
			got := make([]complex128, p.OutLen())
			if err := way.run(got, x, h); err != nil {
				t.Fatal(err)
			}
			e := 0.0
			for i := range got {
				e = math.Max(e, cmplx.Abs(got[i]-way.want[i]))
			}
			worst = math.Max(worst, e/unit)
			if e > c*unit {
				t.Errorf("K=%d M=%d %s: error %.3g = %.3f·ε·log₂M·‖x‖₂·‖h‖₂, budget c = %g", k, p.SegmentLen(), way.name, e, e/unit, c)
			}
		}
	}
	t.Logf("worst c: %.3f", worst)
}

// BenchmarkConvolve times one ConvPlan.Convolve per op, in ns per
// output sample, with the segment length M, serially and on the default
// worker count: 2^16 samples by K = 255, batch_resident's shape
// (M = 1024), and by 84, 251 and 1100 taps, whose M moved when segments
// took Bluestein's length rule; and 3000 samples by 8000 taps, three
// 12500-point segments, fewer than most machines have workers.
func BenchmarkConvolve(b *testing.B) {
	for _, sh := range [][2]int{{1 << 16, 84}, {1 << 16, 251}, {1 << 16, 255}, {1 << 16, 1100}, {3000, 8000}} {
		n, k := sh[0], sh[1]
		shape := fmt.Sprintf("k=%d", k)
		if n != 1<<16 {
			shape = fmt.Sprintf("%dx%d", n, k)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		x, h := randComplex(rng, n), randComplex(rng, k)
		for _, way := range []string{"serial", "default"} {
			var opts []codeletfft.HostOption
			if way == "serial" {
				opts = append(opts, codeletfft.WithWorkers(1))
			}
			p, err := codeletfft.NewConvPlan(n, k, opts...)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]complex128, p.OutLen())
			b.Run(way+"/"+shape, func(b *testing.B) {
				for range b.N {
					if err := p.Convolve(dst, x, h); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/out")
				b.ReportMetric(float64(p.SegmentLen()), "M")
			})
		}
	}
}
