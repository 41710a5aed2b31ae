package fft_test

import (
	"errors"
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"

	"codeletfft/internal/fft"
)

// fourStepFactorizations lists the (n1, n2) splits the property suite
// sweeps for a given N: near-square plus both 4×-skewed shapes, the
// same mix the cluster coordinator may choose.
func fourStepFactorizations(n int) [][2]int {
	logN := fft.Log2(n)
	var fs [][2]int
	seen := map[[2]int]bool{}
	for _, l1 := range []int{logN / 2, logN/2 - 1, logN/2 + 1} {
		if l1 < 1 || logN-l1 < 1 {
			continue
		}
		f := [2]int{1 << l1, 1 << (logN - l1)}
		if !seen[f] {
			seen[f] = true
			fs = append(fs, f)
		}
	}
	return fs
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestFourStepMatchesPlanTransform is the acceptance property: across
// every N = n1·n2 up to 2^20 and ≥3 factorizations per N, the
// four-step output matches Plan.Transform within 1e-12 relative to the
// input scale.
func TestFourStepMatchesPlanTransform(t *testing.T) {
	for lg := 2; lg <= 20; lg += 2 {
		n := 1 << lg
		pl, err := fft.NewPlan(n, min(64, n))
		if err != nil {
			t.Fatal(err)
		}
		w := fft.Twiddles(n)
		x := randComplex(n, int64(lg))
		want := append([]complex128(nil), x...)
		pl.Transform(want, w)
		for _, f := range fourStepFactorizations(n) {
			fs, err := fft.NewFourStep(f[0], f[1])
			if err != nil {
				t.Fatalf("NewFourStep(%d, %d): %v", f[0], f[1], err)
			}
			got := append([]complex128(nil), x...)
			fs.Transform(got)
			// Tolerance scales with N: both algorithms accumulate
			// O(log N) rounding on bins of magnitude ~sqrt(N).
			if e := fft.MaxError(got, want); e > 1e-12*float64(n) {
				t.Errorf("N=2^%d %dx%d: four-step vs staged error %g", lg, f[0], f[1], e)
			}
		}
	}
}

func TestFourStepRoundTrip(t *testing.T) {
	for _, f := range [][2]int{{4, 8}, {16, 16}, {8, 128}, {256, 64}} {
		fs, err := fft.NewFourStep(f[0], f[1])
		if err != nil {
			t.Fatal(err)
		}
		x := randComplex(fs.N, 7)
		data := append([]complex128(nil), x...)
		fs.Transform(data)
		fs.InverseTransform(data)
		if e := fft.MaxError(data, x); e > 1e-9 {
			t.Errorf("%dx%d: round-trip error %g", f[0], f[1], e)
		}
	}
}

// TestFourStepLinearity: FFT(a·x + b·y) = a·FFT(x) + b·FFT(y).
func TestFourStepLinearity(t *testing.T) {
	fs, err := fft.NewFourStep(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := fs.N
	x, y := randComplex(n, 11), randComplex(n, 12)
	a, b := complex(1.5, -0.25), complex(-2.0, 0.75)
	mix := make([]complex128, n)
	for i := range mix {
		mix[i] = a*x[i] + b*y[i]
	}
	fs.Transform(mix)
	fs.Transform(x)
	fs.Transform(y)
	want := make([]complex128, n)
	for i := range want {
		want[i] = a*x[i] + b*y[i]
	}
	if e := fft.MaxError(mix, want); e > 1e-9*float64(n) {
		t.Errorf("linearity violated: error %g", e)
	}
}

// TestFourStepImpulse: the transform of a shifted impulse is the
// analytic exponential ω^{shift·k}.
func TestFourStepImpulse(t *testing.T) {
	fs, err := fft.NewFourStep(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := fs.N
	const shift = 5
	data := make([]complex128, n)
	data[shift] = 1
	fs.Transform(data)
	for k := range data {
		ang := -2 * math.Pi * float64(shift*k%n) / float64(n)
		want := cmplx.Exp(complex(0, ang))
		if d := data[k] - want; math.Hypot(real(d), imag(d)) > 1e-10 {
			t.Fatalf("impulse bin %d: got %v want %v", k, data[k], want)
		}
	}
}

func TestFourStepRejectsBadFactors(t *testing.T) {
	for _, f := range [][2]int{{3, 8}, {8, 3}, {1, 16}, {16, 1}, {0, 0}, {-4, 4}} {
		if _, err := fft.NewFourStep(f[0], f[1]); !errors.Is(err, fft.ErrUnsupportedLength) {
			t.Errorf("NewFourStep(%d, %d) err = %v, want ErrUnsupportedLength", f[0], f[1], err)
		}
	}
}

func TestTwiddleScaleMatchesDirect(t *testing.T) {
	const totalN = 256
	tw := fft.TwoLevelTwiddles(totalN)
	for _, index := range []int{0, 1, 7, 128, 255, 300} {
		col := randComplex(16, int64(index))
		want := append([]complex128(nil), col...)
		for k := range want {
			ang := -2 * math.Pi * float64((index*k)%totalN) / float64(totalN)
			want[k] *= cmplx.Exp(complex(0, ang))
		}
		tw.Scale(col, index)
		if e := fft.MaxError(col, want); e > 1e-12 {
			t.Errorf("index %d: twiddle-scale error %g", index, e)
		}
	}
}

// FuzzFourStepMatchesDirect fuzzes the factor split and the input and
// checks the four-step output against the staged direct transform, then
// the round trip back to the input.
func FuzzFourStepMatchesDirect(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add(make([]byte, 256), uint8(3))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 200, 100}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, split uint8) {
		x, _ := fuzzInput(raw, 0)
		if x == nil || len(x) < 4 {
			t.Skip("input too short for a 2×2 split")
		}
		n := len(x)
		logN := fft.Log2(n)
		l1 := int(split)%(logN-1) + 1 // 1 … logN-1, both factors ≥ 2
		fs, err := fft.NewFourStep(1<<l1, 1<<(logN-l1))
		if err != nil {
			t.Fatalf("NewFourStep(2^%d, 2^%d): %v", l1, logN-l1, err)
		}
		pl, err := fft.NewPlan(n, min(64, n))
		if err != nil {
			t.Fatal(err)
		}
		want := append([]complex128(nil), x...)
		pl.Transform(want, fft.Twiddles(n))
		got := append([]complex128(nil), x...)
		fs.Transform(got)
		if e := fft.MaxError(got, want); e > 1e-9 {
			t.Fatalf("N=%d split 2^%d: four-step vs direct error %g", n, l1, e)
		}
		fs.InverseTransform(got)
		if e := fft.MaxError(got, x); e > 1e-9 {
			t.Fatalf("N=%d split 2^%d: round-trip error %g", n, l1, e)
		}
	})
}

// TestTwiddleDirectBitwise pins the entries the two-level table is
// filled from: the table-free evaluation agrees bit for bit with
// Twiddles(n) at every exponent, the second half-turn by negation.
func TestTwiddleDirectBitwise(t *testing.T) {
	for _, n := range []int{2, 4, 256, 1 << 12} {
		w := fft.Twiddles(n)
		for e := 0; e < n; e++ {
			want := w[e%(n/2)]
			if e >= n/2 {
				want = -want
			}
			if got := fft.TwiddleDirect(e, n); got != want {
				t.Fatalf("n=%d e=%d: TwiddleDirect %v != table %v", n, e, got, want)
			}
		}
	}
}

// exactTwiddle evaluates ω_n^e = exp(−2πi·e/n) to well beyond double
// precision: the exponent is folded into the first octant exactly, and
// sin/cos of the remaining angle ≤ π/4 are summed as Taylor series in
// 200-bit arithmetic.
func exactTwiddle(e, n int) (re, im *big.Float) {
	const prec = 200
	// e/n = q/8 + r with q the octant and 0 ≤ r < 1/8, all exact.
	q := 8 * e / n
	x := new(big.Float).SetPrec(prec).SetInt64(int64(8*e - q*n))
	pi, _ := new(big.Float).SetPrec(prec).SetString("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899")
	x.Mul(x, pi).Quo(x, new(big.Float).SetPrec(prec).SetInt64(int64(4*n))) // 2π·r ∈ [0, π/4)
	x2 := new(big.Float).SetPrec(prec).Mul(x, x)
	cos := new(big.Float).SetPrec(prec).SetInt64(1)
	sin := new(big.Float).SetPrec(prec).Set(x)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for k := int64(1); k < 60; k += 2 {
		// term runs through x^k/k!; even powers feed cos, odd ones sin.
		term.Mul(term, x2).Quo(term, new(big.Float).SetPrec(prec).SetInt64(k*(k+1)))
		sign := k/2%2 == 0
		c := new(big.Float).SetPrec(prec).Set(term)
		s := new(big.Float).SetPrec(prec).Mul(term, x)
		s.Quo(s, new(big.Float).SetPrec(prec).SetInt64(k+2))
		if sign {
			cos.Sub(cos, c)
			sin.Sub(sin, s)
		} else {
			cos.Add(cos, c)
			sin.Add(sin, s)
		}
	}
	// Rotate exp(−i·2πr) by q octants: exp(−iθ) with θ = qπ/4 + 2πr.
	cr, ci := cos, new(big.Float).SetPrec(prec).Neg(sin)
	if q%2 == 1 {
		// times exp(−iπ/4) = √½·(1 − i)
		rt := new(big.Float).SetPrec(prec).SetInt64(2)
		rt.Sqrt(rt).Quo(rt, new(big.Float).SetPrec(prec).SetInt64(2))
		a := new(big.Float).SetPrec(prec).Add(cr, ci)
		b := new(big.Float).SetPrec(prec).Sub(ci, cr)
		cr, ci = a.Mul(a, rt), b.Mul(b, rt)
	}
	for h := q / 2; h > 0; h-- { // times −i per quarter turn
		cr, ci = ci, new(big.Float).SetPrec(prec).Neg(cr)
	}
	return cr, ci
}

// TestTwoLevelTwiddleAccuracy bounds the two-level table against the
// exact roots of unity: at every exponent of N=2^16 and 4096 sampled
// ones of N=2^28, both components lie within 2 ε (ε = 2^−52) of
// exp(−2πi·e/N). The budget is mostly TwiddleDirect's own — its rounded
// angle alone costs up to π·ε — so this also pins that the product adds
// no more than its one rounding.
func TestTwoLevelTwiddleAccuracy(t *testing.T) {
	const eps = 0x1p-52
	check := func(tw *fft.TwoLevelTable, e, n int) {
		t.Helper()
		got := tw.At(e)
		re, im := exactTwiddle(e, n)
		dr, _ := re.Sub(re, big.NewFloat(real(got))).Float64()
		di, _ := im.Sub(im, big.NewFloat(imag(got))).Float64()
		if d := max(math.Abs(dr), math.Abs(di)); d > 2*eps {
			t.Fatalf("N=%d e=%d: table is %.3g ε from exact", n, e, d/eps)
		}
	}
	n := 1 << 16
	tw := fft.TwoLevelTwiddles(n)
	for e := 0; e < n; e++ {
		check(tw, e, n)
	}
	n = 1 << 28
	tw = fft.TwoLevelTwiddles(n)
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 4096; i++ {
		check(tw, rng.Intn(n), n)
	}
	for _, e := range []int{0, 1, n/8 - 1, n / 8, n/4 + 1, n / 2, n - 1} {
		check(tw, e, n)
	}
}

// TestTwoLevelScaleReducesIndex: Scale accepts any column index and
// treats it as index mod N, bit for bit — negative ones included.
func TestTwoLevelScaleReducesIndex(t *testing.T) {
	const totalN = 1 << 10
	tw := fft.TwoLevelTwiddles(totalN)
	for _, index := range []int{0, 1, 5, 31, 512, 1023, 1024, 2049, -1, -1025} {
		want := randComplex(64, int64(index)+99)
		got := append([]complex128(nil), want...)
		tw.Scale(want, ((index%totalN)+totalN)%totalN)
		tw.Scale(got, index)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("index %d k=%d: %v != in-range %v", index, k, got[k], want[k])
			}
		}
	}
}
