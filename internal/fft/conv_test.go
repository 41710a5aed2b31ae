// Tests of the overlap-save convolution geometry: segment sizing
// invariants, gather/scatter tiling (every output written exactly once,
// edge tiles zero-padded correctly), and the end-to-end property that
// segmented frequency-domain convolution reproduces the O(N·K) direct
// reference — pinned across hand-picked shapes and a fuzz target.
package fft

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// ossConvolve runs the full overlap-save pipeline on the pure geometry
// with MixedPlan segment transforms — the reference implementation the
// facade's batched ConvPlan must agree with.
func ossConvolve(t testing.TB, x, h []complex128) []complex128 {
	t.Helper()
	spec, err := NewConvSpec(len(x), len(h))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMixedPlan(spec.M)
	if err != nil {
		t.Fatalf("segment length %d not 7-smooth: %v", spec.M, err)
	}
	hhat := make([]complex128, spec.M)
	spec.PadKernel(hhat, h)
	noErr(t, mp.Transform(hhat))

	dst := make([]complex128, spec.OutLen())
	seg := make([]complex128, spec.M)
	for s := 0; s < spec.Segs; s++ {
		spec.Gather(s, seg, x)
		noErr(t, mp.Transform(seg))
		for i := range seg {
			seg[i] *= hhat[i]
		}
		noErr(t, mp.InverseTransform(seg))
		spec.Scatter(s, dst, seg)
	}
	return dst
}

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := math.Hypot(real(a[i]-b[i]), imag(a[i]-b[i])); d > m {
			m = d
		}
	}
	return m
}

// isSmooth reports whether n > 0 has no prime factor beyond 7.
func isSmooth(n int) bool {
	for _, p := range [...]int{2, 3, 5, 7} {
		for n%p == 0 {
			n /= p
		}
	}
	return n == 1
}

// scanSmooth is the brute-force oracle: the first 7-smooth c ≥ n.
func scanSmooth(n int) int {
	c := max(n, 1)
	for !isSmooth(c) {
		c++
	}
	return c
}

// mulOrZero returns a·b, or 0 when it overflows an int.
func mulOrZero(a, b int) int {
	if a > math.MaxInt/b {
		return 0
	}
	return a * b
}

// TestNextSmooth checks the enumeration against a brute-force scan for
// every n ≤ 2^16 and for n sampled log-uniformly up to 2^31, and at the
// top of the int range: the largest 7-smooth int is its own answer, and
// past it there is none (0).
func TestNextSmooth(t *testing.T) {
	const dense = 1 << 16
	want := dense // 2^16 is 7-smooth: the answer for every n in (prev, 2^16]
	for n := dense; n >= -2; n-- {
		if n >= 1 && isSmooth(n) {
			want = n
		}
		if got := NextSmooth(n); got != max(want, 1) {
			t.Fatalf("NextSmooth(%d) = %d, want %d", n, got, max(want, 1))
		}
	}
	rng := rand.New(rand.NewSource(31))
	hi := min(1<<31, math.MaxInt)
	samples := []int{hi, hi - 1, hi - 12345, dense + 1}
	for i := 0; i < 100; i++ {
		samples = append(samples, int(math.Exp(math.Log(dense)+rng.Float64()*(math.Log(float64(hi))-math.Log(dense)))))
	}
	for _, n := range samples {
		if got, want := NextSmooth(n), scanSmooth(n); got != want {
			t.Fatalf("NextSmooth(%d) = %d, want %d", n, got, want)
		}
	}

	// The largest 7-smooth int: the greatest 2^a·p ≤ MaxInt over the odd
	// parts p = 3^b·5^c·7^d.
	top := 0
	for p7 := 1; p7 > 0; p7 = mulOrZero(p7, 7) {
		for p5 := p7; p5 > 0; p5 = mulOrZero(p5, 5) {
			for p := p5; p > 0; p = mulOrZero(p, 3) {
				top = max(top, p<<(bits.UintSize-1-bits.Len(uint(p))))
			}
		}
	}
	if !isSmooth(top) {
		t.Fatalf("cap %d is not 7-smooth", top)
	}
	// MaxInt (2^31-1 or 2^63-1) is not 7-smooth, so top + 1 fits.
	for _, c := range []struct{ n, want int }{{top, top}, {top + 1, 0}, {math.MaxInt, 0}} {
		var got int
		within(t, 5*time.Second, fmt.Sprintf("NextSmooth(%d)", c.n), func() { got = NextSmooth(c.n) })
		if got != c.want {
			t.Fatalf("NextSmooth(%d) = %d with %d the largest 7-smooth int, want %d", c.n, got, top, c.want)
		}
	}
}

// within runs f on its own goroutine and fails the test if f has not
// returned after d: a call that spins fails the suite instead of
// stalling it.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestConvSpecGeometry pins the segmentation invariants across shapes:
// 7-smooth M, S ≥ 1, segments exactly tiling the output, and the
// collapse to one full-length segment when that is no larger — up to
// outputs near the largest int. A shape whose output length or 4·K
// passes what an int holds, or whose output has no 7-smooth length
// above it, fails with ErrUnsupportedLength rather than panicking,
// returning a negative geometry, or spinning.
func TestConvSpecGeometry(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {16, 1}, {100, 3}, {1 << 12, 31}, {1 << 12, 1 << 10},
		{997, 101}, {5000, 5000}, {64, 1000},
		{math.MaxInt / 2, 1}, {math.MaxInt / 4, 255},
	} {
		var spec ConvSpec
		var err error
		within(t, 5*time.Second, fmt.Sprintf("NewConvSpec(%d, %d)", tc.n, tc.k), func() { spec, err = NewConvSpec(tc.n, tc.k) })
		if err != nil {
			t.Fatalf("NewConvSpec(%d, %d): %v", tc.n, tc.k, err)
		}
		if spec.S != spec.M-spec.K+1 || spec.S < 1 {
			t.Fatalf("%+v: bad fresh count", spec)
		}
		if NextSmooth(spec.M) != spec.M {
			t.Fatalf("%+v: M not 7-smooth", spec)
		}
		out := spec.OutLen()
		if spec.Segs != (out-1)/spec.S+1 || (spec.Segs-1)*spec.S >= out {
			t.Fatalf("%+v: segments do not tile %d outputs", spec, out)
		}
		if full := NextSmooth(out); spec.M > full {
			t.Fatalf("%+v: segment longer than the single-transform fallback %d", spec, full)
		}
	}
	for _, tc := range []struct{ n, k int }{
		{0, 4}, {4, 0}, {-1, 1},
		{math.MaxInt, 2}, {2, math.MaxInt / 2}, {math.MaxInt / 2, math.MaxInt / 2},
		{math.MaxInt - 10, 1}, {1, math.MaxInt/4 + 1},
		{2, math.MaxInt / 8}, // M = 2^60: no buffer holds a segment
	} {
		var err error
		within(t, 5*time.Second, fmt.Sprintf("NewConvSpec(%d, %d)", tc.n, tc.k), func() { _, err = NewConvSpec(tc.n, tc.k) })
		if !errors.Is(err, ErrUnsupportedLength) {
			t.Fatalf("NewConvSpec(%d, %d) err = %v, want ErrUnsupportedLength", tc.n, tc.k, err)
		}
	}
}

// TestGatherScatterTiling checks the index math sample by sample: each
// gathered segment matches the definition (zero outside [0,N)), and the
// scatter positions cover every output index exactly once — including
// the leading edge tile (left zero-padding) and the ragged final tile.
func TestGatherScatterTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, k int }{{300, 40}, {1000, 256}, {257, 3}} {
		spec, err := NewConvSpec(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		x := randSignal(rng, tc.n)
		seg := make([]complex128, spec.M)
		covered := make([]int, spec.OutLen())
		dst := make([]complex128, spec.OutLen())
		for s := 0; s < spec.Segs; s++ {
			spec.Gather(s, seg, x)
			start := s*spec.S - (spec.K - 1)
			for j := 0; j < spec.M; j++ {
				want := complex(0, 0)
				if idx := start + j; idx >= 0 && idx < tc.n {
					want = x[idx]
				}
				if seg[j] != want {
					t.Fatalf("n=%d k=%d seg %d pos %d: gathered %v, want %v", tc.n, tc.k, s, j, seg[j], want)
				}
			}
			// Mark which outputs this segment's scatter writes.
			lo := s * spec.S
			cnt := min(spec.S, spec.OutLen()-lo)
			for j := 0; j < cnt; j++ {
				covered[lo+j]++
			}
			spec.Scatter(s, dst, seg)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d k=%d: output %d written %d times, want exactly once", tc.n, tc.k, i, c)
			}
		}
	}
}

// TestOverlapSaveMatchesDirect is the core correctness property across
// power-of-two, composite, and prime signal lengths, plus the two edge
// regimes the segmentation must survive: a kernel longer than the
// default segment (K ≫ minSegment/4) and a kernel longer than the
// signal itself.
func TestOverlapSaveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct{ n, k int }{
		{256, 17}, // pow2 signal
		{360, 31}, // composite (mixed-radix native)
		{257, 16}, // prime signal length
		{1 << 12, 501},
		{500, 400},  // kernel longer than S would allow at minSegment
		{100, 300},  // kernel longer than the signal
		{1000, 997}, // prime kernel length comparable to the signal
	} {
		x := randSignal(rng, tc.n)
		h := randSignal(rng, tc.k)
		got := ossConvolve(t, x, h)
		want := make([]complex128, tc.n+tc.k-1)
		DirectConvolve(want, x, h)
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Hypot(real(v), imag(v)))
		}
		if scale == 0 {
			scale = 1
		}
		if d := maxDiff(got, want); d/scale > 1e-9 {
			t.Fatalf("n=%d k=%d: overlap-save diverged from direct by %g (rel %g)", tc.n, tc.k, d, d/scale)
		}
	}
}

// TestPadKernelReversed pins the cross-correlation layout: position t
// holds conj(h[K-1-t]).
func TestPadKernelReversed(t *testing.T) {
	spec, err := NewConvSpec(600, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := []complex128{1 + 2i, 3 - 1i, 0.5i, -2, 4 + 4i}
	dst := make([]complex128, spec.M)
	spec.PadKernelReversed(dst, h)
	for tt := 0; tt < spec.K; tt++ {
		v := h[spec.K-1-tt]
		if dst[tt] != complex(real(v), -imag(v)) {
			t.Fatalf("position %d = %v, want conj(h[%d]) = %v", tt, dst[tt], spec.K-1-tt, complex(real(v), -imag(v)))
		}
	}
	for i := spec.K; i < spec.M; i++ {
		if dst[i] != 0 {
			t.Fatalf("tail position %d = %v, want 0", i, dst[i])
		}
	}
}

// FuzzConvolveMatchesDirect drives the overlap-save pipeline against
// the O(N·K) reference over fuzzer-chosen shapes and signal content.
func FuzzConvolveMatchesDirect(f *testing.F) {
	f.Add(uint16(64), uint16(7), int64(1))
	f.Add(uint16(257), uint16(31), int64(2))
	f.Add(uint16(1), uint16(1), int64(3))
	f.Add(uint16(100), uint16(300), int64(4))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint16, seed int64) {
		n := int(nRaw)%1024 + 1
		k := int(kRaw)%1024 + 1
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, n)
		h := randSignal(rng, k)
		got := ossConvolve(t, x, h)
		want := make([]complex128, n+k-1)
		DirectConvolve(want, x, h)
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Hypot(real(v), imag(v)))
		}
		if scale == 0 {
			scale = 1
		}
		if d := maxDiff(got, want); d/scale > 1e-8 {
			t.Fatalf("n=%d k=%d seed=%d: overlap-save diverged by %g (rel %g)", n, k, seed, d, d/scale)
		}
	})
}
