package fft_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"codeletfft/internal/fft"
)

// transposeVariants names each exported tiled move as a slice-to-slice
// transposition.
var transposeVariants = []struct {
	name string
	move func(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int)
}{
	{"plain", fft.TransposeBlock},
	{"from", func(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int) {
		fft.TransposeBlockFrom(dst, ldDst, rows, cols, func(run []complex128, r, c int) { copy(run, src[r*ldSrc+c:]) })
	}},
	{"into", func(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int) {
		fft.TransposeInto(dst, ldDst, src, ldSrc, rows, cols, false, 0)
	}},
}

// sentinel fills everything a transposition must leave alone. NaN never
// compares equal, so the check is on the bits.
var sentinel = complex(math.Float64frombits(0x7ff8dead00000001), math.Float64frombits(0x7ff8dead00000002))

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// checkTransposeBlock runs move on a rows×cols window at offsets into
// larger arrays and compares dst, element for element, with the element
// loop: the window transposed, every other element still the sentinel.
func checkTransposeBlock(t *testing.T, move func(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int),
	rows, cols, padDst, padSrc, offDst, offSrc int, seed int64) {
	t.Helper()
	ldSrc, ldDst := cols+padSrc, rows+padDst
	src := randComplex(offSrc+rows*ldSrc+5, seed)
	dst := make([]complex128, offDst+cols*ldDst+5)
	want := make([]complex128, len(dst))
	for i := range dst {
		dst[i], want[i] = sentinel, sentinel
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want[offDst+c*ldDst+r] = src[offSrc+r*ldSrc+c]
		}
	}
	srcBefore := append([]complex128(nil), src...)
	move(dst[offDst:], ldDst, src[offSrc:], ldSrc, rows, cols)
	for i := range dst {
		if !sameBits(dst[i], want[i]) {
			t.Fatalf("%d×%d ld %d→%d offsets %d→%d: dst[%d] = %v, want %v",
				rows, cols, ldSrc, ldDst, offSrc, offDst, i, dst[i], want[i])
		}
	}
	for i := range src {
		if !sameBits(src[i], srcBefore[i]) {
			t.Fatalf("%d×%d: src[%d] was written", rows, cols, i)
		}
	}
}

// TestTransposeBlock holds the tiled move to the element loop it
// replaces over every tile-edge shape — below, at and above one tile
// and several tiles with a ragged edge — with tight and padded leading
// dimensions, in place at the start of an array and at an offset inside
// a larger one.
func TestTransposeBlock(t *testing.T) {
	sizes := []int{1, 2, 3, 31, 32, 33, 63, 64, 65, 257}
	for _, v := range transposeVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, rows := range sizes {
				for _, cols := range sizes {
					seed := int64(rows*1000 + cols)
					checkTransposeBlock(t, v.move, rows, cols, 0, 0, 0, 0, seed)
					checkTransposeBlock(t, v.move, rows, cols, 7, 3, 11, 5, seed)
				}
			}
		})
	}
}

// TestTransposeBlockRejectsBadShapes: a window the slices cannot hold is
// a length-mismatch panic before anything is written.
func TestTransposeBlockRejectsBadShapes(t *testing.T) {
	for _, tc := range []struct {
		name                               string
		lenDst, ldDst, lenSrc, ldSrc, r, c int
	}{
		{"src short", 12, 3, 11, 4, 3, 4},
		{"dst short", 11, 3, 12, 4, 3, 4},
		{"ldSrc < cols", 12, 3, 12, 3, 3, 4},
		{"ldDst < rows", 12, 2, 12, 4, 3, 4},
		{"negative rows", 12, 3, 12, 4, -1, 4},
	} {
		dst := make([]complex128, tc.lenDst)
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, fft.ErrLengthMismatch) {
					t.Errorf("%s: panic value %v, want ErrLengthMismatch", tc.name, err)
				}
			}()
			fft.TransposeBlock(dst, tc.ldDst, make([]complex128, tc.lenSrc), tc.ldSrc, tc.r, tc.c)
		}()
		for i, v := range dst {
			if v != 0 {
				t.Errorf("%s: dst[%d] written before the panic", tc.name, i)
			}
		}
	}
}

// FuzzTransposeBlock fuzzes the window shape, both paddings and the
// data through every variant.
func FuzzTransposeBlock(f *testing.F) {
	f.Add(uint16(1), uint16(1), uint8(0), uint8(0), int64(1))
	f.Add(uint16(64), uint16(64), uint8(0), uint8(0), int64(2))
	f.Add(uint16(65), uint16(63), uint8(3), uint8(9), int64(3))
	f.Add(uint16(200), uint16(7), uint8(1), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, rows, cols uint16, padDst, padSrc uint8, seed int64) {
		r, c := int(rows)%300, int(cols)%300
		for _, v := range transposeVariants {
			checkTransposeBlock(t, v.move, r, c, int(padDst), int(padSrc), int(padDst)%13, int(padSrc)%13, seed)
		}
	})
}

// TestFourStepTransposesMatchLoops holds the plan's three data moves —
// the column gather (ColumnsFrom), the scaled transposition between the
// transforms (TransposeScaled: out of whole columns, and out of a
// packed window as the cluster's exchange and the out-of-core spill
// hand it over) and the final transpose (TransposeRows, and
// TransposeInto without the tile) — to the element loops they fuse,
// kept here as the reference, forward and inverse, on square, skewed,
// sub-tile and multi-tile factorizations.
func TestFourStepTransposesMatchLoops(t *testing.T) {
	for _, f := range [][2]int{{2, 2}, {4, 64}, {64, 4}, {32, 128}, {1024, 16}} {
		n1, n2 := f[0], f[1]
		n := n1 * n2
		fs, err := fft.NewFourStep(n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		tw := fft.TwoLevelTwiddles(n)
		check := func(name string, got, want []complex128) {
			t.Helper()
			g, w := fft.ComplexFloat64s(got), fft.ComplexFloat64s(want)
			for i := range g {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("%d×%d %s: float %d = %v, want %v", n1, n2, name, i, g[i], w[i])
				}
			}
		}
		src := randComplex(n, int64(n1*7+n2))
		for _, conj := range []bool{false, true} {
			// Gather column j2 of the row-major N1×N2 matrix into its own
			// N1 elements.
			got, want := make([]complex128, n), make([]complex128, n)
			fs.ColumnsFrom(got, src, n2, conj)
			for j2 := 0; j2 < n2; j2++ {
				for j1 := 0; j1 < n1; j1++ {
					x := src[j1*n2+j2]
					if conj {
						x = complex(real(x), -imag(x))
					}
					want[j2*n1+j1] = x
				}
			}
			check(fmt.Sprintf("ColumnsFrom conj=%v", conj), got, want)

			// Final transpose: bin k2 of row k1 to X[k2·N1+k1], conj·1/N of
			// it for the inverse.
			fs.TransposeRows(got, src, n1, conj)
			s := 1 / float64(n)
			for k1 := 0; k1 < n1; k1++ {
				for k2 := 0; k2 < n2; k2++ {
					x := src[k1*n2+k2]
					if conj {
						x = complex(real(x)*s, -imag(x)*s)
					}
					want[k2*n1+k1] = x
				}
			}
			check(fmt.Sprintf("TransposeRows inverse=%v", conj), got, want)

			// Block by block, as the cluster's coordinator runs it: the rows
			// of each block land in their own slots of the whole output.
			blocks := make([]complex128, n)
			for r0, h := 0, max(1, n1/4); r0 < n1; r0 += h {
				fs.TransposeRows(blocks[r0:], src[r0*n2:], min(h, n1-r0), conj)
			}
			check(fmt.Sprintf("TransposeRows by blocks inverse=%v", conj), blocks, want)

			// The same move without the tile, as the out-of-core drain runs
			// it into its run buffers.
			fft.TransposeInto(blocks, n1, src, n2, n1, n2, conj, s)
			check(fmt.Sprintf("TransposeInto inverse=%v", conj), blocks, want)
		}

		// Between the transforms: scale bin k1 of column j2 by
		// ω_N^{j2·k1}, and write it at row k1, column j2.
		got, want := make([]complex128, n), make([]complex128, n)
		fs.TransposeScaled(got, n2, src, n1, 0, n2, 0, n1)
		c := make([]complex128, n1)
		for j2 := 0; j2 < n2; j2++ {
			copy(c, src[j2*n1:])
			tw.Scale(c, j2)
			for k1, x := range c {
				want[k1*n2+j2] = x
			}
		}
		check("TransposeScaled", got, want)

		// A worker's window: columns from j0, bins from k0, into a
		// destination that starts at its first column.
		j0, k0 := n2/2, n1/2
		win := make([]complex128, n)
		fs.TransposeScaled(win[j0:], n2, src[j0*n1+k0:], n1, j0, n2-j0, k0, n1-k0)
		for k1 := k0; k1 < n1; k1++ {
			for j2 := j0; j2 < n2; j2++ {
				if g, w := win[(k1-k0)*n2+j2], want[k1*n2+j2]; !sameBits(g, w) {
					t.Fatalf("%d×%d TransposeScaled window: bin %d of column %d = %v, want %v", n1, n2, k1, j2, g, w)
				}
			}
		}

		// A window packed on its own, as an exchange frame or a spill
		// segment carries it — bins [k0, k0+bins) of columns [j0,
		// j0+count), column v at v·ld, ld ≠ N1 — held to the two moves the
		// fold replaced: ScaleFrom into a scaled copy, then TransposeBlock.
		// Cells outside the destination window keep their sentinel.
		j0, k0 = n2/4+1, n1/4+1
		count, bins := max(1, n2/2-1), max(1, n1/2-1)
		if n1 == 2 {
			k0, bins = 1, 1
		}
		if n2 == 2 {
			j0, count = 1, 1
		}
		for _, pad := range []int{0, 5} {
			ld := bins + pad
			packed, scaled := make([]complex128, count*ld), make([]complex128, count*ld)
			for v := 0; v < count; v++ {
				copy(packed[v*ld:][:bins], src[(j0+v)*n1+k0:])
				tw.ScaleFrom(scaled[v*ld:][:bins], packed[v*ld:], j0+v, k0)
			}
			sentinel := complex(math.Inf(1), -1)
			folded, moved := make([]complex128, n), make([]complex128, n)
			for i := range folded {
				folded[i], moved[i] = sentinel, sentinel
			}
			fs.TransposeScaled(folded[j0:], n2, packed, ld, j0, count, k0, bins)
			fft.TransposeBlock(moved[j0:], n2, scaled, ld, count, bins)
			check(fmt.Sprintf("TransposeScaled packed window ld=%d", ld), folded, moved)
		}
	}
}

// BenchmarkTransposeBlock times one 1024×1024 transposition, the
// cluster's 2^20-point shape, against the element loop.
func BenchmarkTransposeBlock(b *testing.B) {
	const n = 1024
	src, dst := randComplex(n*n, 1), make([]complex128, n*n)
	b.Run("tiles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.TransposeBlock(dst, n, src, n, n, n)
		}
	})
	b.Run("element loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				for c, v := range src[r*n : (r+1)*n] {
					dst[c*n+r] = v
				}
			}
		}
	})
	if dst[1] != src[n] {
		b.Fatalf("dst[1] = %v, want src[%d] = %v", dst[1], n, src[n])
	}
}
