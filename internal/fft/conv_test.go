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
	"slices"
	"testing"
	"time"
)

// ossConvolve runs the full overlap-save pipeline on the pure geometry
// with MixedPlan segment transforms, step by step — the reference
// implementation the facade's ConvPlan must agree with.
func ossConvolve(t testing.TB, x, h []complex128) []complex128 {
	t.Helper()
	spec, err := NewConvSpec(len(x), len(h))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMixedPlan(spec.M)
	if err != nil {
		t.Fatalf("segment length %d: %v", spec.M, err)
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

// scanLen is transformLen's rule done the slow way, over every integer
// in [lo, M₂], M₂ the smallest power of two ≥ lo: the least
// m·len(Factor(m)) among M₂ and the multiples of 4 with no prime factor
// beyond 5, ties to the smaller.
func scanLen(lo int) int {
	m2 := 1 << bits.Len(uint(lo-1))
	best, cost := m2, -1
	for m := lo; m <= m2; m++ {
		radices, cofactor := Factor(m)
		if m != m2 && (m%4 != 0 || cofactor != 1 || slices.Contains(radices, 7)) {
			continue
		}
		if c := m * len(radices); cost < 0 || c < cost {
			best, cost = m, c
		}
	}
	return best
}

// TestTransformLen checks the length rule Bluestein and overlap-save
// share against the scan at every lo ≤ 2^11 and at lo sampled
// log-uniformly up to 2^20, and at the top of the int range: M₂ =
// 2^(bits−2) is the largest length it gives, and past it there is none
// (0).
func TestTransformLen(t *testing.T) {
	los := []int{}
	for lo := 1; lo <= 1<<11; lo++ {
		los = append(los, lo)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 64; i++ {
		los = append(los, int(math.Exp(rng.Float64()*math.Log(1<<20))))
	}
	for _, lo := range los {
		if got, want := transformLen(lo), scanLen(lo); got != want {
			t.Fatalf("transformLen(%d) = %d, the scan finds %d", lo, got, want)
		}
	}
	top := 1 << (bits.UintSize - 2)
	for _, c := range []struct{ lo, want int }{{top - 1, top}, {top, top}, {top + 1, 0}, {math.MaxInt, 0}} {
		var got int
		within(t, 5*time.Second, fmt.Sprintf("transformLen(%d)", c.lo), func() { got = transformLen(c.lo) })
		if got != c.want {
			t.Fatalf("transformLen(%d) = %d, want %d", c.lo, got, c.want)
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
// M is transformLen's answer — for max(4K, 256), or for the whole
// output where that is no larger — so it has no prime factor beyond 5;
// S ≥ 1; the segments exactly tile the output — up to outputs near the
// largest int. The kernels whose M moved off a 7-smooth length (84:
// 336 → 400, 251: 1008 → 1024, 1100: 4410 → 4500) are among them, and
// K = 255 over 2^16 samples keeps its 1024. A shape whose output
// length or 4·K passes what an int holds, or whose output has no
// transform length an int holds, fails with ErrUnsupportedLength
// rather than panicking, returning a negative geometry, or spinning.
func TestConvSpecGeometry(t *testing.T) {
	for _, tc := range []struct{ n, k, m int }{
		{1, 1, 1}, {16, 1, 16}, {100, 3, 108}, {1 << 12, 31, 256}, {1 << 12, 1 << 10, 4096},
		{997, 101, 500}, {5000, 5000, 10000}, {64, 1000, 1200},
		{1 << 16, 84, 400}, {1 << 16, 251, 1024}, {1 << 16, 1100, 4500}, {1 << 16, 255, 1024},
		{math.MaxInt / 2, 1, 256}, {math.MaxInt / 4, 255, 1024},
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
		out := spec.OutLen()
		if want := min(transformLen(max(4*tc.k, minSegment)), transformLen(out)); spec.M != want || spec.M != tc.m {
			t.Fatalf("%+v: M = %d, the rule gives %d, want %d", spec, spec.M, want, tc.m)
		}
		if radices, cofactor := Factor(spec.M); cofactor != 1 || slices.Contains(radices, 7) {
			t.Fatalf("%+v: M has a prime factor beyond 5", spec)
		}
		if spec.Segs != (out-1)/spec.S+1 || (spec.Segs-1)*spec.S >= out {
			t.Fatalf("%+v: segments do not tile %d outputs", spec, out)
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

// TestConvFilterSchedule: Filter's one schedule — forward passes,
// filter pass, inverse passes on one State — has the bits of the three
// steps run apart, on plans with a SoA frame (staged 2^12, two filter
// units), a work buffer (mixed 4500) and a work buffer twice the span
// (Bluestein 1009), and reads hhat afresh on every run.
func TestConvFilterSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pl, err := NewPlan(1<<12, 64)
	noErr(t, err)
	w := Twiddles(1 << 12)
	mp, err := NewMixedPlan(4500)
	noErr(t, err)
	bp, err := NewBluesteinPlan(1009)
	noErr(t, err)
	for _, tc := range []struct {
		name     string
		fwd, inv *Schedule
	}{
		{"soa4/2^12", pl.Schedule(w, KernelSoARadix4, false), pl.Schedule(w, KernelSoARadix4, true)},
		{"mixed/4500", mp.Schedule(false), mp.Schedule(true)},
		{"bluestein/1009", bp.Schedule(false), bp.Schedule(true)},
	} {
		n := tc.fwd.N
		hhat := randSignal(rng, n)
		s := Filter(tc.fwd, tc.inv, hhat)
		if s.Passes[len(tc.fwd.Passes)].Label != PassFilter || len(s.Passes) != len(tc.fwd.Passes)+1+len(tc.inv.Passes) {
			t.Fatalf("%s: passes are not fwd's, one filter pass, inv's", tc.name)
		}
		for range 2 {
			x := randSignal(rng, n)
			want := slices.Clone(x)
			noErr(t, tc.fwd.Run(want))
			for i := range want {
				want[i] *= hhat[i]
			}
			noErr(t, tc.inv.Run(want))
			noErr(t, s.Run(x))
			if !slices.EqualFunc(x, want, sameBits) {
				t.Fatalf("%s: Filter's schedule differs from its three steps", tc.name)
			}
			hhat[0] *= 2 // a refilled spectrum is the next run's filter
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
