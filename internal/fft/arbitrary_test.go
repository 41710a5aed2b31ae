// The arbitrary-N correctness matrix: every radix family the planner
// claims to support — pure primes (Bluestein), 3·2^k, 5·2^k, 7·3^j,
// powers of ten, highly-composite lengths, and the degenerate N=1 —
// is checked against the O(N²) reference DFT and against the
// metamorphic identities any DFT must satisfy. This is the ground
// truth behind the facade's "any N ≥ 1 plans successfully" contract.
package fft_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"codeletfft/internal/fft"
)

// radixFamily is one named row of the correctness matrix.
type radixFamily struct {
	name    string
	lengths []int
}

// primesTo257 lists every prime ≤ 257 — all of them exercise the
// Bluestein path except 2, 3, 5 and 7, which have direct codelets.
func primesTo257() []int {
	var ps []int
	for n := 2; n <= 257; n++ {
		isPrime := true
		for d := 2; d*d <= n; d++ {
			if n%d == 0 {
				isPrime = false
				break
			}
		}
		if isPrime {
			ps = append(ps, n)
		}
	}
	return ps
}

// arbitraryNMatrix is the shared N matrix for the correctness and
// metamorphic suites.
func arbitraryNMatrix() []radixFamily {
	var p3, p5, p7 []int
	for k := 0; k <= 9; k++ {
		p3 = append(p3, 3<<k)
	}
	for k := 0; k <= 8; k++ {
		p5 = append(p5, 5<<k)
	}
	for j, v := 0, 7; j <= 4; j, v = j+1, v*3 {
		p7 = append(p7, v)
	}
	return []radixFamily{
		{"identity", []int{1}},
		{"primes", primesTo257()},
		{"3x2^k", p3},
		{"5x2^k", p5},
		{"7x3^j", p7},
		{"10^k", []int{10, 100, 1000}},
		{"highly-composite", []int{120, 720, 840, 1260, 2520}},
	}
}

// planAny returns a serial transform/inverse pair for any n ≥ 1, using
// the mixed-radix plan when N factors over {2,3,5,7} and Bluestein
// otherwise — the same routing the facade applies.
func planAny(t *testing.T, n int) (forward, inverse func([]complex128), desc string) {
	t.Helper()
	if mp, err := fft.NewMixedPlan(n); err == nil {
		return checked(t, mp.Transform), checked(t, mp.InverseTransform), mp.String()
	}
	bp, err := fft.NewBluesteinPlan(n)
	if err != nil {
		t.Fatalf("no plan for n=%d: %v", n, err)
	}
	return checked(t, bp.Transform), checked(t, bp.InverseTransform), bp.String()
}

// checked adapts an in-place transform to a test: an error fails t.
func checked(t *testing.T, f func([]complex128) error) func([]complex128) {
	return func(x []complex128) { noErr(t, f(x)) }
}

// noErr fails t on a non-nil error.
func noErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// peakMag returns the largest |X[k]| — the scale relative errors are
// measured against.
func peakMag(x []complex128) float64 {
	var peak float64
	for _, v := range x {
		if m := math.Hypot(real(v), imag(v)); m > peak {
			peak = m
		}
	}
	return peak
}

// TestArbitraryNMatrix compares every matrix length against the O(N²)
// reference DFT at a relative tolerance of 1e-9 of the spectrum's peak
// magnitude — the acceptance bar for the whole arbitrary-N feature.
func TestArbitraryNMatrix(t *testing.T) {
	for _, fam := range arbitraryNMatrix() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for _, n := range fam.lengths {
				forward, _, desc := planAny(t, n)
				x := randSignal(n, int64(n))
				want := fft.DFT(x)
				got := append([]complex128(nil), x...)
				forward(got)
				peak := peakMag(want)
				if peak == 0 {
					peak = 1
				}
				if e := fft.MaxError(got, want); e > 1e-9*peak {
					t.Errorf("n=%d (%s): max error %g exceeds 1e-9 of peak %g", n, desc, e, peak)
				}
			}
		})
	}
}

// TestArbitraryNMetamorphic checks the DFT identities — linearity,
// Parseval, the impulse response, the circular-shift theorem, and the
// forward/inverse round trip — over the same matrix, so correctness
// does not rest on the reference implementation alone.
func TestArbitraryNMetamorphic(t *testing.T) {
	for _, fam := range arbitraryNMatrix() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for _, n := range fam.lengths {
				forward, inverse, desc := planAny(t, n)
				tf := func(x []complex128) []complex128 {
					out := append([]complex128(nil), x...)
					forward(out)
					return out
				}
				x := randSignal(n, int64(7*n+1))
				y := randSignal(n, int64(7*n+2))

				// Linearity: T(a·x + b·y) = a·T(x) + b·T(y).
				a, b := complex(1.25, -0.5), complex(-0.75, 2.0)
				mixed := make([]complex128, n)
				for i := range mixed {
					mixed[i] = a*x[i] + b*y[i]
				}
				got := tf(mixed)
				tx, ty := tf(x), tf(y)
				want := make([]complex128, n)
				for i := range want {
					want[i] = a*tx[i] + b*ty[i]
				}
				if e := fft.MaxError(got, want); e > 1e-9*float64(n) {
					t.Errorf("n=%d (%s): linearity violated, error %g", n, desc, e)
				}

				// Parseval: Σ|x|² = Σ|X|²/N.
				var timeE, freqE float64
				for i := range x {
					timeE += cAbs2(x[i])
					freqE += cAbs2(tx[i])
				}
				freqE /= float64(n)
				if rel := math.Abs(timeE-freqE) / timeE; rel > 1e-9 {
					t.Errorf("n=%d (%s): Parseval violated, relative error %g", n, desc, rel)
				}

				// Impulse: T(δ₀) is the all-ones vector.
				imp := make([]complex128, n)
				imp[0] = 1
				for k, v := range tf(imp) {
					if d := math.Hypot(real(v)-1, imag(v)); d > 1e-9 {
						t.Fatalf("n=%d (%s): impulse bin %d = %v, want 1", n, desc, k, v)
					}
				}

				// Circular shift: advancing x by s multiplies bin k by
				// exp(2πi·k·s/N).
				if n > 1 {
					s := 1 + (n-2)%5
					shifted := make([]complex128, n)
					for i := range shifted {
						shifted[i] = x[(i+s)%n]
					}
					Y := tf(shifted)
					for k := range Y {
						ang := 2 * math.Pi * float64(k) * float64(s) / float64(n)
						sw := tx[k] * complex(math.Cos(ang), math.Sin(ang))
						if d := math.Hypot(real(Y[k])-real(sw), imag(Y[k])-imag(sw)); d > 1e-9*float64(n) {
							t.Fatalf("n=%d (%s) s=%d: shift theorem violated at bin %d: got %v want %v",
								n, desc, s, k, Y[k], sw)
						}
					}
				}

				// Round trip: inverse(forward(x)) = x.
				rt := append([]complex128(nil), x...)
				forward(rt)
				inverse(rt)
				if e := fft.MaxError(rt, x); e > 1e-9 {
					t.Errorf("n=%d (%s): round-trip error %g", n, desc, e)
				}
			}
		})
	}
}

// TestFactor pins the factorization policy: radix-4 first, at most one
// radix-2, then 3s, 5s, 7s, with anything left reported as the
// cofactor that routes the length to Bluestein.
func TestFactor(t *testing.T) {
	cases := []struct {
		n        int
		radices  []int
		cofactor int
	}{
		{1, nil, 1},
		{2, []int{2}, 1},
		{4, []int{4}, 1},
		{8, []int{4, 2}, 1},
		{12, []int{4, 3}, 1},
		{360, []int{4, 2, 3, 3, 5}, 1},
		{1000, []int{4, 2, 5, 5, 5}, 1},
		{49, []int{7, 7}, 1},
		{11, nil, 11},
		{22, []int{2}, 11},
		{143, nil, 143},
	}
	for _, c := range cases {
		radices, cofactor := fft.Factor(c.n)
		if cofactor != c.cofactor || len(radices) != len(c.radices) {
			t.Fatalf("Factor(%d) = %v, %d, want %v, %d", c.n, radices, cofactor, c.radices, c.cofactor)
		}
		for i := range radices {
			if radices[i] != c.radices[i] {
				t.Fatalf("Factor(%d) = %v, want %v", c.n, radices, c.radices)
			}
		}
	}
}

// TestMixedPlanInvariants checks the structural invariants every
// mixed-radix plan must satisfy: the stage radices multiply back to N,
// each stage covers the whole vector, the twiddle tables have the
// documented (R−1)·M layout, each pass's units are N over its stages'
// radices, the plan makes as many passes each way as the table says —
// one per stage, less one per pair of same-radix stages after the
// first, the last included, fused where the vector pair codelets run
// (radix 3, 4, 5; one pass per stage on a build without them, and for
// radix 7 everywhere), and an odd pass count ends in place, the last
// pass a stage or a pair, with no copy-back — and the inverse's conjugations and
// 1/N ride on the first and last (N = 1 keeps them as two sweeps), with
// the bits of conj → forward → conj·1/N.
func TestMixedPlanInvariants(t *testing.T) {
	for _, c := range []struct{ n, passes int }{
		{1, 0}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 2}, {7, 1}, {8, 2}, {9, 2}, {10, 2}, {12, 2}, {60, 3},
		{360, 4},     // [4 2 3 3 5]: 3×3 fused
		{1000, 4},    // [4 2 5 5 5]: 5×5
		{2520, 5},    // [4 2 3 3 5 7]
		{6144, 5},    // [4 4 4 4 4 2 3]: two 4×4
		{3 << 10, 4}, // [4 4 4 4 4 3]
		{49, 2},      // [7 7]: no pair codelet for radix 7, and stage 0 stays single
		{375, 3},     // [3 5 5 5]
		{125, 2},     // [5 5 5]: the last pair, S = 5
		{2401, 4},    // [7 7 7 7]: no pair codelet for radix 7
		{12005, 5},   // [5 7 7 7 7]
		{1000000, 5}, // [4 4 4 5 5 5 5 5 5]: 4×4, 5×5, 5×5, 5×5 (the last, in place); 9 before fusion
		{3 << 18, 6}, // [4 4 4 4 4 4 4 4 4 3]: four 4×4; 10 before fusion
		{562500, 5},  // [4 3 3 5 5 5 5 5 5]: 3×3, 5×5, 5×5, 5×5 (Bluestein's M at 2^18+3)
		{19683, 5},   // [3 3 3 3 3 3 3 3 3]: four 3×3, the last in place with an odd S = 3^7
		{59049, 6},   // [3 3 3 3 3 3 3 3 3 3]: four 3×3 from stage 1, the last stage single
	} {
		n := c.n
		mp, err := fft.NewMixedPlan(n)
		if err != nil {
			t.Fatalf("NewMixedPlan(%d): %v", n, err)
		}
		if mp.N != n {
			t.Fatalf("plan for %d reports N=%d", n, mp.N)
		}
		fwd, inv := mp.Schedule(false).Passes, mp.Schedule(true).Passes
		wantFwd, wantInv := c.passes, c.passes
		if !fft.HasPairCodelets() {
			wantFwd, wantInv = len(mp.Stages), len(mp.Stages)
		}
		if n == 1 {
			wantInv = 2
		}
		if len(fwd) != wantFwd || len(inv) != wantInv {
			t.Fatalf("n=%d (%d stages): %d forward and %d inverse passes, want %d and %d",
				n, len(mp.Stages), len(fwd), len(inv), wantFwd, wantInv)
		}
		x := randComplex(n, int64(n))
		want := make([]complex128, n)
		for i, v := range x {
			want[i] = complex(real(v), -imag(v))
		}
		noErr(t, mp.Transform(want))
		scale := 1 / float64(n)
		for i, v := range want {
			want[i] = complex(real(v)*scale, -imag(v)*scale)
		}
		noErr(t, mp.InverseTransform(x))
		for i := range x {
			if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("n=%d: inverse[%d] = %v, conj → forward → conj·1/N gives %v", n, i, x[i], want[i])
			}
		}

		prod := 1
		for _, r := range mp.Radices {
			prod *= r
		}
		if prod != n {
			t.Fatalf("n=%d: radices %v multiply to %d", n, mp.Radices, prod)
		}
		if len(mp.Stages) != len(mp.Radices) {
			t.Fatalf("n=%d: %d stages for %d radices", n, len(mp.Stages), len(mp.Radices))
		}
		for i, st := range mp.Stages {
			if st.R*st.M*st.S != n {
				t.Fatalf("n=%d stage %d: R·M·S = %d·%d·%d ≠ N", n, i, st.R, st.M, st.S)
			}
			if want := (st.R - 1) * st.M; len(st.Tw) != want {
				t.Fatalf("n=%d stage %d: %d twiddles, want %d", n, i, len(st.Tw), want)
			}
		}
		// A pass of k stages has N over their radices' product units,
		// so over the passes those products multiply back to N.
		span := 1
		for j, p := range fwd {
			if p.Units < 1 || n%p.Units != 0 {
				t.Fatalf("n=%d pass %d: %d units do not divide N", n, j, p.Units)
			}
			span *= n / p.Units
		}
		if span != n {
			t.Fatalf("n=%d: the passes' radix products multiply to %d", n, span)
		}
	}
	if _, err := fft.NewMixedPlan(11); !errors.Is(err, fft.ErrUnsupportedLength) {
		t.Fatalf("NewMixedPlan(11) err = %v, want ErrUnsupportedLength", err)
	}
	if _, err := fft.NewMixedPlan(0); !errors.Is(err, fft.ErrUnsupportedLength) {
		t.Fatalf("NewMixedPlan(0) err = %v, want ErrUnsupportedLength", err)
	}
}

// TestBluesteinLargePrime runs the one transform size the O(N²)
// reference cannot reach — the prime 2^20+7 — and validates it through
// Parseval plus a forward/inverse round trip.
func TestBluesteinLargePrime(t *testing.T) {
	if testing.Short() {
		t.Skip("large prime transform skipped in -short mode")
	}
	const n = 1<<20 + 7
	bp, err := fft.NewBluesteinPlan(n)
	if err != nil {
		t.Fatalf("NewBluesteinPlan(%d): %v", n, err)
	}
	x := randSignal(n, 20)
	data := append([]complex128(nil), x...)
	noErr(t, bp.Transform(data))
	var timeE, freqE float64
	for i := range x {
		timeE += cAbs2(x[i])
		freqE += cAbs2(data[i])
	}
	freqE /= float64(n)
	if rel := math.Abs(timeE-freqE) / timeE; rel > 1e-9 {
		t.Errorf("n=%d: Parseval violated, relative error %g", n, rel)
	}
	noErr(t, bp.InverseTransform(data))
	if e := fft.MaxError(data, x); e > 1e-8 {
		t.Errorf("n=%d: round-trip error %g", n, e)
	}
}

// TestErrUnsupportedLengthSentinel: every planner's length rejection
// wraps the single ErrUnsupportedLength root sentinel. (The deprecated
// ErrNotPowerOfTwo alias and its compatibility shim were removed with
// the API purge.)
func TestErrUnsupportedLengthSentinel(t *testing.T) {
	// A staged-plan shape error.
	if _, err := fft.NewPlan(100, 4); !errors.Is(err, fft.ErrUnsupportedLength) {
		t.Fatalf("NewPlan(100, 4) err = %v, want ErrUnsupportedLength", err)
	}
	// A mixed-radix cofactor error: 143 = 11·13.
	if _, err := fft.NewMixedPlan(143); !errors.Is(err, fft.ErrUnsupportedLength) {
		t.Fatalf("NewMixedPlan(143) err = %v, want ErrUnsupportedLength", err)
	}
}

// BenchmarkMixedPlan times one serial mixed-radix transform per op,
// forward and inverse, in ns per point, with the schedule's passes per
// op (benchSchedule). 562500 is Bluestein's M at 2^18+3, the 3×3 and
// 5×5 fused pairs; 59049 = 3^10 and 140625 = 3²·5⁶ fuse pairs with an
// odd S, whose last q column runs the Go pair path. The powers of two
// 2^7…2^22 are BenchmarkSoASchedule's lengths, for setting the two
// engines side by side.
func BenchmarkMixedPlan(b *testing.B) {
	ns := []int{1000, 3072, 49152, 59049, 140625, 3 << 18, 562500, 1000000}
	for lg := 7; lg <= 22; lg++ {
		ns = append(ns, 1<<lg)
	}
	for _, n := range ns {
		mp, err := fft.NewMixedPlan(n)
		if err != nil {
			b.Fatal(err)
		}
		orig := randComplex(n, int64(n))
		for _, dir := range []string{"fwd", "inv"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, dir), func(b *testing.B) {
				benchSchedule(b, mp.Schedule(dir == "inv"), orig)
			})
		}
	}
}
