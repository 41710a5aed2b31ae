package fft_test

import (
	"testing"

	"codeletfft/internal/fft"
)

// The four-step's steps move data with the transposition
// (TransposeBlock and TransposeConj, held to the element loop in
// transpose_test.go) and scale it with ScaleFrom, held below to the
// element-loop Scale; fourstep_test.go holds their composition to the
// unfused four-step.

// checkScaleFrom holds the scale of a window to the sweep it replaces:
// Scale the whole column, take the window — into a separate buffer, and
// in place.
func checkScaleFrom(t *testing.T, logTotal, n1, index, k0, w int, seed int64) {
	t.Helper()
	tw := fft.TwoLevelTwiddles(1 << logTotal)
	col := randComplex(n1, seed)
	src := append([]complex128(nil), col...)
	tw.Scale(col, index)
	got := make([]complex128, w+1)
	got[w] = sentinel
	tw.ScaleFrom(got[:w], src[k0:], index, k0)
	for i, v := range got[:w] {
		if !sameBits(v, col[k0+i]) {
			t.Fatalf("N=2^%d index=%d k0=%d: bin %d = %v, Scale gives %v", logTotal, index, k0, k0+i, v, col[k0+i])
		}
	}
	if !sameBits(got[w], sentinel) {
		t.Fatalf("N=2^%d index=%d k0=%d w=%d: wrote past the window", logTotal, index, k0, w)
	}
	tw.ScaleFrom(src[k0:k0+w], src[k0:], index, k0)
	for i, v := range src[k0 : k0+w] {
		if !sameBits(v, col[k0+i]) {
			t.Fatalf("N=2^%d index=%d k0=%d: in place, bin %d = %v, Scale gives %v", logTotal, index, k0, k0+i, v, col[k0+i])
		}
	}
}

func TestScaleFromMatchesScale(t *testing.T) {
	for _, tc := range []struct{ logTotal, n1 int }{{2, 2}, {7, 8}, {11, 32}, {13, 64}, {20, 1024}} {
		n2 := 1<<tc.logTotal/tc.n1 - 1
		for _, index := range []int{0, 1, n2 / 2, n2, -3, 1<<tc.logTotal + 5} {
			for _, k0 := range []int{0, 1, tc.n1 / 2, tc.n1 - 1} {
				for _, w := range []int{0, 1, tc.n1 - k0} {
					checkScaleFrom(t, tc.logTotal, tc.n1, index, k0, w, int64(index*31+k0))
				}
			}
		}
	}
}

func FuzzScaleFrom(f *testing.F) {
	f.Add(uint8(2), uint8(1), int32(1), uint16(0), uint16(2), int64(1))
	f.Add(uint8(20), uint8(10), int32(777), uint16(64), uint16(64), int64(2))
	f.Add(uint8(11), uint8(5), int32(-9), uint16(31), uint16(1), int64(3))
	f.Fuzz(func(t *testing.T, logTotal, logN1 uint8, index int32, k0, w uint16, seed int64) {
		lt := 2 + int(logTotal)%20
		n1 := 1 << (1 + int(logN1)%(lt-1))
		n1 = min(n1, 1<<11)
		k := int(k0) % n1
		checkScaleFrom(t, lt, n1, int(index), k, int(w)%(n1-k+1), seed)
	})
}

// TestStageKernelMatchesTileKernel: the four-step's column and row
// steps — ColFFTs and RowFFTs on contiguous vectors, ScaleFrom out of a
// column — give the bits of the mixed-radix plan of the factor length
// (MixedPlan.Transform on the whole vector, then the element-loop Scale
// for a column), at factor lengths on both sides of the move's tile
// side.
func TestStageKernelMatchesTileKernel(t *testing.T) {
	for _, f := range [][2]int{{2, 2}, {4, 16}, {32, 64}, {64, 32}, {128, 256}, {16, 1024}, {2048, 8}} {
		n1, n2 := f[0], f[1]
		fs, err := fft.NewFourStep(n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		colPlan, err := fft.NewMixedPlan(n1)
		if err != nil {
			t.Fatal(err)
		}
		rowPlan, err := fft.NewMixedPlan(n2)
		if err != nil {
			t.Fatal(err)
		}
		tw := fft.TwoLevelTwiddles(n1 * n2)

		const cols = 3
		src := randComplex(n1*cols, int64(n1))
		want := append([]complex128(nil), src...)
		for v := 0; v < cols; v++ {
			c := want[v*n1 : (v+1)*n1]
			noErr(t, colPlan.Transform(c))
			tw.Scale(c, 5+v)
		}
		fs.ColFFTs(src)
		got := make([]complex128, n1)
		for v := 0; v < cols; v++ {
			tw.ScaleFrom(got, src[v*n1:], 5+v, 0)
			for k := range got {
				if !sameBits(got[k], want[v*n1+k]) {
					t.Fatalf("%d×%d column %d bin %d: steps %v, mixed plan %v", n1, n2, v, k, got[k], want[v*n1+k])
				}
			}
		}

		rows := randComplex(2*n2, int64(n2)+1)
		wantRows := append([]complex128(nil), rows...)
		noErr(t, rowPlan.Transform(wantRows[:n2]))
		noErr(t, rowPlan.Transform(wantRows[n2:]))
		fs.RowFFTs(rows)
		if !equalBits(rows, wantRows) {
			t.Fatalf("%d×%d rows: RowFFTs differs from the mixed plan", n1, n2)
		}
	}
}
