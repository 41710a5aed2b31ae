package fft_test

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"codeletfft/internal/fft"
)

// TestBluesteinPlanShape pins the length rule's answer (N, M): the
// cheapest {2,3,5}-smooth multiple of 4 near 2N, or the next power of
// two itself when that is cheapest, with the convolution on M's
// mixed-radix stages.
func TestBluesteinPlanShape(t *testing.T) {
	for _, c := range []struct{ n, m int }{
		{1, 2}, {2, 4}, {3, 8},
		{11, 24}, {33, 80}, {257, 540},
		{1009, 2048}, // the power of two is the cheapest candidate
		{5003, 10240},
		{65521, 1 << 17}, // and again, just under it
		{65537, 150000},
		{129763, 1 << 18},
		{1<<18 + 3, 562500}, // [4 3 3 5 5 5 5 5 5]: 9 stages
	} {
		if m := fft.BluesteinLen(c.n); m != c.m {
			t.Errorf("BluesteinLen(%d) = %d, want %d", c.n, m, c.m)
		}
		bp, err := fft.NewBluesteinPlan(c.n)
		if err != nil {
			t.Fatalf("NewBluesteinPlan(%d): %v", c.n, err)
		}
		if bp.N != c.n || bp.M != c.m || bp.Conv.N != c.m {
			t.Errorf("NewBluesteinPlan(%d) = N=%d %v, want M=%d", c.n, bp.N, bp, c.m)
		}
		if len(bp.Chirp) != c.n || len(bp.BHat) != c.m {
			t.Errorf("n=%d: chirp/filter tables are %d/%d long, want %d/%d",
				c.n, len(bp.Chirp), len(bp.BHat), c.n, c.m)
		}
		if s := bp.Schedule(false); s.Span() != c.m {
			t.Errorf("n=%d: span %d, want the convolution length %d", c.n, s.Span(), c.m)
		}
	}
	if _, err := fft.NewBluesteinPlan(0); !errors.Is(err, fft.ErrUnsupportedLength) {
		t.Fatalf("NewBluesteinPlan(0) err = %v, want ErrUnsupportedLength", err)
	}
}

// pow2Above returns the smallest power of two ≥ max(lo, 2).
func pow2Above(lo int) int {
	return 1 << bits.Len(uint(max(lo, 2)-1))
}

// smooth235 reports whether m has no prime factor beyond 5.
func smooth235(m int) bool {
	for _, p := range []int{2, 3, 5} {
		for m%p == 0 {
			m /= p
		}
	}
	return m == 1
}

// scanSmoothLen is the rule's candidate search done the slow way, over
// every integer in [lo, m2]: the least m·len(Factor(m)) among m2 and
// the multiples of 4 with no prime factor beyond 5, ties to the smaller.
func scanSmoothLen(lo, m2 int) int {
	best, cost := m2, 0
	for m := lo; m <= m2; m++ {
		if m != m2 && (m%4 != 0 || !smooth235(m)) {
			continue
		}
		radices, _ := fft.Factor(m)
		if c := m * len(radices); cost == 0 || c < cost {
			best, cost = m, c
		}
	}
	return best
}

// TestBluesteinLenRule checks the rule's properties at every N in
// [1, 600] and at sampled larger N, up to the largest N it accepts:
// M ≥ 2N−1; M is M₂, the next power of two, or a {2,3,5}-smooth multiple
// of 4 below it; and, wherever a scan over integers is affordable, the
// enumerated candidate is the scan's.
func TestBluesteinLenRule(t *testing.T) {
	check := func(n int, scan bool) {
		t.Helper()
		lo := max(2*n-1, 2)
		m2 := pow2Above(lo)
		m := fft.BluesteinLen(n)
		switch {
		case m < lo || m > m2:
			t.Fatalf("N=%d: M=%d outside [%d, %d]", n, m, lo, m2)
		case m != m2 && (m%4 != 0 || !smooth235(m)):
			t.Fatalf("N=%d: M=%d is neither %d nor a {2,3,5}-smooth multiple of 4", n, m, m2)
		}
		if scan {
			if want := scanSmoothLen(lo, m2); m != want {
				t.Fatalf("N=%d: M=%d, a scan over [%d, %d] finds %d", n, m, lo, m2, want)
			}
		}
	}
	for n := 1; n <= 600; n++ {
		check(n, true)
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 64; i++ {
		check(1+rng.Intn(1<<16), true)
	}
	top := math.MaxInt/4 + 1 // the largest N accepted: M₂ = 2^(bits−2)
	for i := 0; i < 256; i++ {
		check(1+rng.Intn(top), false)
	}
	for _, n := range []int{1<<20 + 7, 1<<30 + 3, top - 1, top} {
		if n <= top { // 2^30+3 is beyond a 32-bit int's top
			check(n, false)
		}
	}
}

// TestBluesteinHugeLengths: an N whose 2N−1 or next power of two
// overflows an int is refused with ErrUnsupportedLength before anything
// is allocated, rather than wrapped into a tiny M and a makeslice panic.
func TestBluesteinHugeLengths(t *testing.T) {
	top := math.MaxInt/4 + 1
	if m := fft.BluesteinLen(top); m < 2*top-1 {
		t.Fatalf("BluesteinLen(%d) = %d, below 2N−1", top, m)
	}
	for _, n := range []int{top + 1, math.MaxInt/2 + 2, math.MaxInt} {
		if m := fft.BluesteinLen(n); m != 0 {
			t.Errorf("BluesteinLen(%d) = %d, want 0", n, m)
		}
		if _, err := fft.NewBluesteinPlan(n); !errors.Is(err, fft.ErrUnsupportedLength) {
			t.Errorf("NewBluesteinPlan(%d) err = %v, want ErrUnsupportedLength", n, err)
		}
	}
}

// TestBluesteinInverseFolds: the N-point inverse has exactly the
// forward's passes — its conj rides on the first stage's loads, with
// the chirp premultiply, its conj·1/N on the last stage's stores, after
// the chirp postmultiply — and its bits are the unfused conj → forward
// → conj·1/N composition's. A plan makes twice its M-point mixed plan's
// passes each way: the premultiply, the filter product and the
// postmultiply ride on the stages next to them, and same-radix stages
// after the first, the last included, run in fused pairs where the
// vector pair codelets do (one pass per stage on a build without them).
func TestBluesteinInverseFolds(t *testing.T) {
	for _, c := range []struct{ n, passes int }{
		{1, 2},          // M = 2: [2]
		{1009, 8},       // M = 2048: [4 4 4 4 4 2]; 12 before fusion
		{5003, 10},      // M = 10240: [4 4 4 4 4 2 5]; 14
		{65521, 12},     // M = 2^17: [4 4 4 4 4 4 4 4 2]; 18
		{1<<18 + 3, 10}, // M = 562500: [4 3 3 5 5 5 5 5 5]; 18
	} {
		bp, err := fft.NewBluesteinPlan(c.n)
		if err != nil {
			t.Fatal(err)
		}
		fwd, inv := bp.Schedule(false), bp.Schedule(true)
		if !fft.HasPairCodelets() {
			c.passes = 2 * len(bp.Conv.Stages)
		}
		if len(fwd.Passes) != c.passes || len(inv.Passes) != c.passes {
			t.Errorf("%v: %d forward and %d inverse passes, want %d each",
				bp, len(fwd.Passes), len(inv.Passes), c.passes)
		}
		x := randSignal(c.n, int64(c.n))
		got := append([]complex128(nil), x...)
		noErr(t, inv.Run(got))
		want := make([]complex128, c.n)
		for i, v := range x {
			want[i] = complex(real(v), -imag(v))
		}
		noErr(t, fwd.Run(want))
		s := 1 / float64(c.n)
		for i, v := range want {
			want[i] = complex(real(v)*s, -imag(v)*s)
		}
		for i := range got {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("%v: inverse[%d] = %v, the unfused composition %v", bp, i, got[i], want[i])
			}
		}
	}
}

// ddTwiddles returns ω_n^e for e ∈ [0, n) as double-double pairs,
// hi[e] + lo[e], good to about 2^−104: exactTwiddle(1, n) raised to
// each power in 200-bit arithmetic and then split into two float64s.
func ddTwiddles(n int) (hi, lo []complex128) {
	const prec = 200
	f := func() *big.Float { return new(big.Float).SetPrec(prec) }
	wr, wi := exactTwiddle(1, n)
	cr, ci := f().SetInt64(1), f()
	t1, t2, t3, t4, r := f(), f(), f(), f(), f()
	split := func(x *big.Float) (float64, float64) {
		h, _ := x.Float64()
		l, _ := r.Sub(x, big.NewFloat(h)).Float64()
		return h, l
	}
	hi, lo = make([]complex128, n), make([]complex128, n)
	for e := range n {
		hr, lr := split(cr)
		hi2, li := split(ci)
		hi[e], lo[e] = complex(hr, hi2), complex(lr, li)
		t1.Mul(cr, wr)
		t2.Mul(ci, wi)
		t3.Mul(cr, wi)
		t4.Mul(ci, wr)
		cr.Sub(t1, t2)
		ci.Add(t3, t4)
	}
	return hi, lo
}

// ddSum is a compensated sum: s carries the running float64 sum, c the
// rounding errors of every addition and product folded into it.
type ddSum struct{ s, c float64 }

// addProd adds a·(bh + bl) with a·bh exact (FMA) and a·bl, far below
// an ulp of the sum, in plain float64.
func (d *ddSum) addProd(a, bh, bl float64) {
	p := a * bh
	pe := math.FMA(a, bh, -p)
	s := d.s + p
	bp := s - d.s
	d.c += (d.s - (s - bp)) + (p - bp) + pe + a*bl
	d.s = s
}

// dftBinsExact evaluates bins of the DFT of x against the double-double
// twiddles of ddTwiddles(len(x)), summing in compensated arithmetic:
// the reference is exact to far below ε at every length tested here.
func dftBinsExact(x, hi, lo []complex128, bins []int) []complex128 {
	n := len(x)
	out := make([]complex128, len(bins))
	for i, k := range bins {
		var re, im ddSum
		e := 0
		for _, v := range x {
			wh, wl := hi[e], lo[e]
			re.addProd(real(v), real(wh), real(wl))
			re.addProd(-imag(v), imag(wh), imag(wl))
			im.addProd(real(v), imag(wh), imag(wl))
			im.addProd(imag(v), real(wh), real(wl))
			if e += k; e >= n {
				e -= n
			}
		}
		out[i] = complex(re.s+re.c, im.s+im.c)
	}
	return out
}

// sampleBins picks count distinct bins of an n-point spectrum: 0, 1,
// n/2, n−1 and seeded random others (all of them when count ≥ n).
func sampleBins(n, count int, seed int64) []int {
	if count >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	seen := map[int]bool{}
	var bins []int
	add := func(k int) {
		if !seen[k] {
			seen[k] = true
			bins = append(bins, k)
		}
	}
	for _, k := range []int{0, 1, n / 2, n - 1} {
		add(k)
	}
	rng := rand.New(rand.NewSource(seed))
	for len(bins) < count {
		add(rng.Intn(n))
	}
	return bins
}

// errEps is the forward transform's error at the sampled bins in units
// of ε = 2^−52 relative to the spectrum's rms there — the ledger's
// fft.err_ulp convention: the worst absolute deviation over ε·rms.
func errEps(got, want []complex128, bins []int) float64 {
	var worst, sumSq float64
	for i, k := range bins {
		d := got[k] - want[i]
		worst = max(worst, math.Hypot(real(d), imag(d)))
		sumSq += cAbs2(want[i])
	}
	return worst / (0x1p-52 * math.Sqrt(sumSq/float64(len(bins))))
}

// checkErrBudget holds the forward transform fwd of the signal x,
// n = len(x) points, and the inverse inv, each unless it is nil, to
// c·ε·log₂(size) of the double-double oracle (errEps at bins sampled
// bins) with c = 2. The inverse's bin N − k is the oracle's bin k over
// N, so one oracle serves both.
func checkErrBudget(t *testing.T, name string, x []complex128, bins, size int, fwd, inv func([]complex128) error) {
	t.Helper()
	const c = 2
	n := len(x)
	picked := sampleBins(n, bins, int64(n))
	hi, lo := ddTwiddles(n)
	want := dftBinsExact(x, hi, lo, picked)
	budget := c * math.Log2(float64(size))
	got := append([]complex128(nil), x...)
	if fwd != nil {
		noErr(t, fwd(got))
		if e := errEps(got, want, picked); e > budget {
			t.Errorf("N=%d %s forward: error %.2f ε, budget %.2f ε", n, name, e, budget)
		}
	}
	if inv == nil {
		return
	}
	copy(got, x)
	noErr(t, inv(got))
	for i, k := range picked {
		picked[i], want[i] = (n-k)%n, want[i]/complex(float64(n), 0)
	}
	if e := errEps(got, want, picked); e > budget {
		t.Errorf("N=%d %s inverse: error %.2f ε, budget %.2f ε", n, name, e, budget)
	}
}

// TestBluesteinErrorBudget holds the forward transform to 2·ε·log₂M
// (checkErrBudget): when every convolution was a power of two on the
// staged plan, the worst measured ratio over the same cases was 1.60
// (N = 89, M = 256). It covers every prime N ≤ 4096 and two lengths
// above 2^15: one on a smooth length, one whose cheapest candidate is
// the power of two.
func TestBluesteinErrorBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("no shared state to race on; the instrumented oracle takes ten times as long")
	}
	check := func(n, bins int) {
		t.Helper()
		bp, err := fft.NewBluesteinPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		checkErrBudget(t, bp.String(), randSignal(n, int64(n)), bins, bp.M, bp.Transform, nil)
	}
	for n := 11; n <= 4096; n++ {
		if isPrime(n) {
			check(n, 32)
		}
	}
	check(1<<18+3, 64) // M = 562500
	check(129763, 64)  // M = 2^18
}

// TestMixedErrorBudget holds the mixed-radix family to the same budget,
// 2·ε·log₂N (checkErrBudget), forward and inverse: every
// {2, 3, 5, 7}-smooth N ≤ 4096 at 32 bins (all of them below), and 10^6,
// 3·2^18, 2^16 and 2^20 — powers of two the facade's default plan runs
// on these stages where fft.MixedPow2 holds — at 32. It is the gate for
// a change that moves the family's bits.
func TestMixedErrorBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("no shared state to race on; the instrumented oracle takes ten times as long")
	}
	check := func(n, bins int) {
		t.Helper()
		mp, err := fft.NewMixedPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		checkErrBudget(t, mp.String(), randSignal(n, int64(n)), bins, n, mp.Transform, mp.InverseTransform)
	}
	for n := 1; n <= 4096; n++ {
		if _, cofactor := fft.Factor(n); cofactor == 1 {
			check(n, 32)
		}
	}
	check(1000000, 32)
	check(3<<18, 32)
	check(1<<16, 32)
	check(1<<20, 32)
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// BenchmarkBluesteinPlan times one serial Bluestein transform per op,
// forward and inverse, in ns per point (129763 convolves at the power
// of two 2^18, the cheapest candidate there), through benchSchedule.
func BenchmarkBluesteinPlan(b *testing.B) {
	for _, n := range []int{1009, 4099, 65537, 1<<18 + 3, 129763} {
		bp, err := fft.NewBluesteinPlan(n)
		if err != nil {
			b.Fatal(err)
		}
		orig := randComplex(n, int64(n))
		for _, dir := range []string{"fwd", "inv"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, dir), func(b *testing.B) {
				benchSchedule(b, bp.Schedule(dir == "inv"), orig)
			})
		}
	}
}

// benchSchedule runs s serially per op on a copy of orig and reports
// ns per point and the schedule's passes per op. Each op first copies
// the same input back into the array — repeated forwards would
// overflow, repeated inverses underflow into subnormals — so a point's
// time includes a 16-byte copy both directions pay alike.
func benchSchedule(b *testing.B, s *fft.Schedule, orig []complex128) {
	n := len(orig)
	data := make([]complex128, n)
	st := s.Acquire(data)
	defer st.Release()
	b.SetBytes(16 * int64(n))
	b.ResetTimer()
	for range b.N {
		copy(data, orig)
		s.Exec(st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pt")
	b.ReportMetric(float64(len(s.Passes)), "passes/op")
}
