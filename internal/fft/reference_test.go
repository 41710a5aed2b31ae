package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestDFTImpulse(t *testing.T) {
	x := make([]complex128, 16)
	x[0] = 1
	y := DFT(x)
	for k, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse spectrum[%d] = %v, want 1", k, v)
		}
	}
}

func TestDFTConstant(t *testing.T) {
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	y := DFT(x)
	if cmplx.Abs(y[0]-complex(float64(n), 0)) > 1e-9 {
		t.Fatalf("DC bin = %v, want %d", y[0], n)
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(y[k]) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", k, y[k])
		}
	}
}

func TestDFTSingleTone(t *testing.T) {
	n, bin := 64, 5
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * float64(bin) * float64(i) / float64(n)
		x[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	y := DFT(x)
	for k := range y {
		want := complex128(0)
		if k == bin {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(y[k]-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", k, y[k], want)
		}
	}
}

func TestRecursiveMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := randomSignal(n, int64(n))
		if err := MaxError(Recursive(x), DFT(x)); err > 1e-8*float64(n) {
			t.Fatalf("n=%d: Recursive vs DFT error %g", n, err)
		}
	}
}

func TestRecursiveRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for length 12")
		}
	}()
	Recursive(make([]complex128, 12))
}

func TestDFTLinearity(t *testing.T) {
	n := 128
	a := randomSignal(n, 1)
	b := randomSignal(n, 2)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = 2*a[i] + 3i*b[i]
	}
	ya, yb, ys := DFT(a), DFT(b), DFT(sum)
	for k := 0; k < n; k++ {
		want := 2*ya[k] + 3i*yb[k]
		if cmplx.Abs(ys[k]-want) > 1e-8 {
			t.Fatalf("linearity broken at bin %d", k)
		}
	}
}

func TestParseval(t *testing.T) {
	n := 256
	x := randomSignal(n, 3)
	y := Recursive(x)
	var tx, ty float64
	for i := range x {
		tx += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ty += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	ty /= float64(n)
	if math.Abs(tx-ty)/tx > 1e-10 {
		t.Fatalf("Parseval violated: time %g vs freq %g", tx, ty)
	}
}

func TestMaxError(t *testing.T) {
	a := []complex128{1, 2 + 2i}
	b := []complex128{1, 2 + 2.5i}
	if got := MaxError(a, b); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("MaxError = %g, want 0.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MaxError(a, b[:1])
}
