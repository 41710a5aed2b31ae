package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTwiddlesValues checks the 8-point table against its known values,
// then pins root, the generator every table is built from, bit for bit
// to the cos/sin expressions it replaced, at every angle form the
// package builds: each e < n for n ≤ 4096 and sampled e at 2^20 and
// 10^6 (twiddle, split and stage tables); Bluestein's chirp exponents
// t² mod 2n, whose angle was −π·e/n, for n ≤ 4096 and sampled at
// n = 2^18+3; and Hann's 0.5·(1 − cos(2πi/n)) for n ≤ 4096. Unlike the
// golden digests it runs on every GOARCH, so a port that fuses
// math.Sincos's multiply-adds differently from math.Cos's or math.Sin's
// fails here.
func TestTwiddlesValues(t *testing.T) {
	w := Twiddles(8)
	if len(w) != 4 {
		t.Fatalf("len = %d, want 4", len(w))
	}
	want := []complex128{
		1,
		complex(math.Sqrt2/2, -math.Sqrt2/2),
		complex(0, -1),
		complex(-math.Sqrt2/2, -math.Sqrt2/2),
	}
	for i := range want {
		if cmplx.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("W[%d] = %v, want %v", i, w[i], want[i])
		}
	}

	bitsOf := func(z complex128) [2]uint64 {
		return [2]uint64{math.Float64bits(real(z)), math.Float64bits(imag(z))}
	}
	check := func(e, n int) {
		ang := -2 * math.Pi * float64(e) / float64(n)
		if got, want := root(e, n), complex(math.Cos(ang), math.Sin(ang)); bitsOf(got) != bitsOf(want) {
			t.Fatalf("root(%d, %d) = %v, cos/sin give %v", e, n, got, want)
		}
	}
	checkChirp := func(tt, n int) {
		e := int(int64(tt) * int64(tt) % int64(2*n))
		ang := -math.Pi * float64(e) / float64(n)
		if got, want := root(e, 2*n), complex(math.Cos(ang), math.Sin(ang)); bitsOf(got) != bitsOf(want) {
			t.Fatalf("chirp n=%d t=%d: root(%d, %d) = %v, cos/sin give %v", n, tt, e, 2*n, got, want)
		}
	}
	for n := 1; n <= 4096; n++ {
		for e := range n {
			check(e, n)
			checkChirp(e, n)
		}
		for i, v := range Hann(n) {
			if want := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n))); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("Hann(%d)[%d] = %v, cos gives %v", n, i, v, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{1 << 20, 1000000, 1<<18 + 3} {
		for range 1 << 16 {
			check(rng.Intn(n), n)
			checkChirp(rng.Intn(n), n)
		}
		check(n-1, n)
		checkChirp(n-1, n)
	}
	// NewBluesteinPlan steps the chirp exponent instead of squaring t; at
	// 8 and 4096 the step lands on 2n exactly, where it must wrap to 0.
	for _, n := range []int{1, 2, 3, 8, 13, 1009, 4096, 4099} {
		bp, err := NewBluesteinPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		for tt, c := range bp.Chirp {
			if want := root(int(int64(tt)*int64(tt)%int64(2*n)), 2*n); bitsOf(c) != bitsOf(want) {
				t.Fatalf("NewBluesteinPlan(%d).Chirp[%d] = %v, want %v", n, tt, c, want)
			}
		}
	}
}

func TestTwiddlesUnitModulus(t *testing.T) {
	for _, mag := range Twiddles(1 << 10) {
		if math.Abs(cmplx.Abs(mag)-1) > 1e-12 {
			t.Fatalf("twiddle off the unit circle: %v", mag)
		}
	}
}

func TestTwiddlesRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Twiddles(%d) did not panic", n)
				}
			}()
			Twiddles(n)
		}()
	}
}

func TestBitReverseKnown(t *testing.T) {
	cases := []struct {
		x     int64
		width int
		want  int64
	}{
		{0, 4, 0}, {1, 4, 8}, {2, 4, 4}, {3, 4, 12},
		{0b1011, 4, 0b1101}, {1, 1, 1}, {1, 10, 512}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := BitReverse(c.x, c.width); got != c.want {
			t.Errorf("BitReverse(%d,%d) = %d, want %d", c.x, c.width, got, c.want)
		}
	}
}

func TestBitReverseInvolution(t *testing.T) {
	f := func(x uint16, w uint8) bool {
		width := int(w)%16 + 1
		v := int64(x) & ((1 << width) - 1)
		return BitReverse(BitReverse(v, width), width) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitReverseIsPermutation(t *testing.T) {
	const width = 8
	seen := make(map[int64]bool)
	for i := int64(0); i < 1<<width; i++ {
		r := BitReverse(i, width)
		if r < 0 || r >= 1<<width {
			t.Fatalf("BitReverse(%d) = %d out of range", i, r)
		}
		if seen[r] {
			t.Fatalf("BitReverse collision at %d", r)
		}
		seen[r] = true
	}
}

func TestHashTwiddlesPermutes(t *testing.T) {
	w := Twiddles(64)
	h := HashTwiddles(w)
	if len(h) != len(w) {
		t.Fatal("length changed")
	}
	// Every original value appears exactly once at its reversed index.
	width := Log2(len(w))
	for i := range w {
		if h[BitReverse(int64(i), width)] != w[i] {
			t.Fatalf("hash table misplaced W[%d]", i)
		}
	}
}

func TestBitReversePermuteInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]complex128, 256)
	orig := make([]complex128, 256)
	for i := range data {
		data[i] = complex(rng.Float64(), rng.Float64())
		orig[i] = data[i]
	}
	BitReversePermute(data)
	BitReversePermute(data)
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("double permute is not identity at %d", i)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 64: 6, 1 << 20: 20, 0: -1, 3: -1, -8: -1, 96: -1}
	for n, want := range cases {
		if got := Log2(n); got != want {
			t.Errorf("Log2(%d) = %d, want %d", n, got, want)
		}
	}
}
