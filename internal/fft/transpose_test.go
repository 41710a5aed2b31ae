package fft_test

import (
	"errors"
	"math"
	"testing"

	"codeletfft/internal/fft"
)

// transposeVariants pairs each exported tiled move with the element map
// it promises, spelled the way the loops it replaced spelled it.
var transposeVariants = []struct {
	name string
	move func(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int)
	elem func(complex128) complex128
}{
	{"plain", fft.TransposeBlock, func(v complex128) complex128 { return v }},
	{"conj", fft.TransposeBlockConj, func(v complex128) complex128 { return complex(real(v), -imag(v)) }},
	{"conjscale", func(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int) {
		fft.TransposeBlockConjScale(dst, ldDst, src, ldSrc, rows, cols, 1.0/3)
	}, func(v complex128) complex128 { return complex(real(v)*(1.0/3), -imag(v)*(1.0/3)) }},
	{"from", func(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int) {
		fft.TransposeBlockFrom(dst, ldDst, rows, cols, func(run []complex128, r, c int) { copy(run, src[r*ldSrc+c:]) })
	}, func(v complex128) complex128 { return v }},
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
// loop: the window transposed under elem, every other element still the
// sentinel.
func checkTransposeBlock(t *testing.T, move func(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int),
	elem func(complex128) complex128, rows, cols, padDst, padSrc, offDst, offSrc int, seed int64) {
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
			want[offDst+c*ldDst+r] = elem(src[offSrc+r*ldSrc+c])
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
					checkTransposeBlock(t, v.move, v.elem, rows, cols, 0, 0, 0, 0, seed)
					checkTransposeBlock(t, v.move, v.elem, rows, cols, 7, 3, 11, 5, seed)
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
			checkTransposeBlock(t, v.move, v.elem, r, c, int(padDst), int(padSrc), int(padDst)%13, int(padSrc)%13, seed)
		}
	})
}

// TestFourStepTransposesMatchLoops holds the plan's three data moves to
// the element loops they were, kept here as the reference, on square,
// skewed, sub-tile and multi-tile factorizations.
func TestFourStepTransposesMatchLoops(t *testing.T) {
	for _, f := range [][2]int{{2, 2}, {4, 64}, {64, 4}, {32, 128}, {1024, 16}} {
		n1, n2 := f[0], f[1]
		fs, err := fft.NewFourStep(n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		src := randComplex(n1*n2, int64(n1*7+n2))
		for _, tc := range []struct {
			name string
			move func(dst, src []complex128)
			loop func(dst, src []complex128)
		}{
			{"GatherColumns", fs.GatherColumns, func(dst, data []complex128) {
				for j1 := 0; j1 < n1; j1++ {
					for j2 := 0; j2 < n2; j2++ {
						dst[j2*n1+j1] = data[j1*n2+j2]
					}
				}
			}},
			{"ScatterColumns", fs.ScatterColumns, func(dst, buf []complex128) {
				for j2 := 0; j2 < n2; j2++ {
					for k1 := 0; k1 < n1; k1++ {
						dst[k1*n2+j2] = buf[j2*n1+k1]
					}
				}
			}},
			{"FinalTranspose", fs.FinalTranspose, func(dst, data []complex128) {
				for k1 := 0; k1 < n1; k1++ {
					for k2 := 0; k2 < n2; k2++ {
						dst[k2*n1+k1] = data[k1*n2+k2]
					}
				}
			}},
		} {
			got, want := make([]complex128, n1*n2), make([]complex128, n1*n2)
			tc.move(got, src)
			tc.loop(want, src)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d×%d %s: element %d = %v, want %v", n1, n2, tc.name, i, got[i], want[i])
				}
			}
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
