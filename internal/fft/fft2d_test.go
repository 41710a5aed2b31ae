package fft

import (
	"errors"
	"math/cmplx"
	"testing"
)

// noErr fails t on a non-nil error.
func noErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// dft2d is the brute-force 2-D DFT used as ground truth.
func dft2d(x []complex128, rows, cols int) []complex128 {
	rowsOut := make([]complex128, rows*cols)
	for r := 0; r < rows; r++ {
		copy(rowsOut[r*cols:(r+1)*cols], DFT(x[r*cols:(r+1)*cols]))
	}
	out := make([]complex128, rows*cols)
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = rowsOut[r*cols+c]
		}
		fc := DFT(col)
		for r := 0; r < rows; r++ {
			out[r*cols+c] = fc[r]
		}
	}
	return out
}

func TestPlan2DMatchesBruteForce(t *testing.T) {
	for _, shape := range []struct{ r, c int }{{8, 8}, {16, 32}, {4, 64}, {64, 4}} {
		p, err := NewPlan2D(shape.r, shape.c, 8)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSignal(shape.r*shape.c, int64(shape.r*1000+shape.c))
		got := append([]complex128(nil), x...)
		noErr(t, p.Transform(got))
		want := dft2d(x, shape.r, shape.c)
		if err := MaxError(got, want); err > 1e-8 {
			t.Fatalf("%dx%d: error %g", shape.r, shape.c, err)
		}
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	p, err := NewPlan2D(32, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	x := randomSignal(32*64, 9)
	data := append([]complex128(nil), x...)
	noErr(t, p.Transform(data))
	noErr(t, p.InverseTransform(data))
	if err := MaxError(data, x); err > 1e-9 {
		t.Fatalf("roundtrip error %g", err)
	}
}

func TestPlan2DImpulse(t *testing.T) {
	// A 2-D impulse at the origin transforms to an all-ones plane.
	p, err := NewPlan2D(16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]complex128, 256)
	data[0] = 1
	noErr(t, p.Transform(data))
	for i, v := range data {
		if cmplx.Abs(v-1) > 1e-10 {
			t.Fatalf("plane[%d] = %v, want 1", i, v)
		}
	}
}

func TestPlan2DValidation(t *testing.T) {
	if _, err := NewPlan2D(10, 16, 4); err == nil {
		t.Fatal("non-power-of-two rows accepted")
	}
	if _, err := NewPlan2D(16, 0, 4); err == nil {
		t.Fatal("zero cols accepted")
	}
	p, _ := NewPlan2D(8, 8, 4)
	if err := p.Transform(make([]complex128, 10)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length mismatch: err = %v, want ErrLengthMismatch", err)
	}
}
