package fft_test

import (
	"math"
	"testing"

	"codeletfft/internal/fft"
)

// The out-of-core phases stage through four moves. One is this
// package's transposition (TransposeBlock, held to the element loop in
// transpose_test.go); the other three are below, each against the
// element loop it replaced in internal/ooc, and so is the stage-only
// kernel that runs between them.

// checkPackColumns packs cols columns of a 2^logN-row matrix with
// leading dimension cols+pad, tile by tile in the order shard says, and
// compares every float of the tile with the loop
//
//	frame(v).Re[BitReverse(j)], .Im[...] = real(src[j][v]), ±imag(src[j][v])
//
// — the old fill's `tile[c*n1+j1] = v` followed by the pack's scatter.
// The tile is one column longer than the move may touch; the spare
// column must still hold the sentinel.
func checkPackColumns(t *testing.T, logN, cols, pad int, conj bool, shard int, seed int64) {
	t.Helper()
	n, ld := 1<<logN, cols+pad
	src := randComplex(n*ld+3, seed)
	tile := make([]complex128, (cols+1)*n)
	want := make([]complex128, len(tile))
	for i := range tile {
		tile[i], want[i] = sentinel, sentinel
	}
	for v := 0; v < cols; v++ {
		f := fft.FrameOf(want[v*n : (v+1)*n])
		for j := 0; j < n; j++ {
			x := src[j*ld+v]
			if conj {
				x = complex(real(x), -imag(x))
			}
			f.Re[fft.BitReverse(int64(j), logN)], f.Im[fft.BitReverse(int64(j), logN)] = real(x), imag(x)
		}
	}
	runs := make([]complex128, fft.MoveRuns*cols)
	loaded := make([]int, n)
	load := func(run []complex128, j int) {
		loaded[j]++
		if len(run) != cols {
			t.Fatalf("logN=%d cols=%d: load handed a run of %d", logN, cols, len(run))
		}
		copy(run, src[j*ld:])
	}
	tiles := fft.PackColumnTiles(logN)
	for i := 0; i < tiles; i++ {
		b := i
		switch shard {
		case 1: // in reverse
			b = tiles - 1 - i
		case 2: // a stride coprime with the power-of-two tile count
			b = i * 5 % tiles
		}
		fft.PackColumns(tile, logN, b, cols, conj, runs, load)
	}
	got, ref := fft.ComplexFloat64s(tile), fft.ComplexFloat64s(want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("logN=%d cols=%d pad=%d conj=%v shard=%d: float %d (column %d) = %v, want %v",
				logN, cols, pad, conj, shard, i, i/(2*n), got[i], ref[i])
		}
	}
	for j, k := range loaded { // whole vectors, each once
		if k != 1 {
			t.Fatalf("logN=%d cols=%d: source row %d loaded %d times", logN, cols, j, k)
		}
	}
}

// TestPackColumnsMatchesScatter: every logN around the chunk height (one
// short tile for L < 6, exactly one, several), column counts around the
// four-column sweep and the tile side, both maps, every tile order.
func TestPackColumnsMatchesScatter(t *testing.T) {
	for logN := 1; logN <= 9; logN++ {
		for _, cols := range []int{0, 1, 2, 3, 4, 5, 63, 64, 65, 130} {
			for _, conj := range []bool{false, true} {
				for shard := 0; shard < 3; shard++ {
					checkPackColumns(t, logN, cols, shard, conj, shard, int64(logN*1000+cols))
				}
			}
		}
	}
	checkPackColumns(t, 13, 5, 0, true, 2, 99)
}

func FuzzPackColumns(f *testing.F) {
	f.Add(uint8(1), uint16(1), uint8(0), false, uint8(0), int64(1))
	f.Add(uint8(6), uint16(64), uint8(0), true, uint8(1), int64(2))
	f.Add(uint8(7), uint16(65), uint8(3), true, uint8(2), int64(3))
	f.Add(uint8(10), uint16(7), uint8(1), false, uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, logN uint8, cols uint16, pad uint8, conj bool, shard uint8, seed int64) {
		checkPackColumns(t, 1+int(logN)%10, int(cols)%200, int(pad)%9, conj, int(shard)%3, seed)
	})
}

// checkUnpackColumns unpacks bins [k0, k0+w) of rows vectors held as
// planes and compares runs with the loop of the old drain,
//
//	stage[r] = tile[r*n2+k2]
//
// over what the old compute left in the tile: the unpacked vector, and
// conj·s of it for the inverse. Runs past the window keep the sentinel.
func checkUnpackColumns(t *testing.T, n, rows, k0, w int, conjScale bool, seed int64) {
	t.Helper()
	const s = 1.0 / 3
	vecs := randComplex(rows*n, seed)
	tile := make([]complex128, rows*n)
	for r := 0; r < rows; r++ {
		f := fft.FrameOf(tile[r*n : (r+1)*n])
		for k, v := range vecs[r*n : (r+1)*n] {
			f.Re[k], f.Im[k] = real(v), imag(v)
		}
	}
	runs := make([]complex128, w*rows+2)
	want := make([]complex128, len(runs))
	for i := range runs {
		runs[i], want[i] = sentinel, sentinel
	}
	for c := 0; c < w; c++ {
		for r := 0; r < rows; r++ {
			x := vecs[r*n+k0+c]
			if conjScale {
				x = complex(real(x)*s, -imag(x)*s)
			}
			want[c*rows+r] = x
		}
	}
	before := append([]complex128(nil), tile...)
	fft.UnpackColumns(runs, tile, n, rows, k0, w, conjScale, s)
	for i := range runs {
		if !sameBits(runs[i], want[i]) {
			t.Fatalf("n=%d rows=%d k0=%d w=%d conjScale=%v: runs[%d] = %v, want %v", n, rows, k0, w, conjScale, i, runs[i], want[i])
		}
	}
	for i := range tile {
		if !sameBits(tile[i], before[i]) {
			t.Fatalf("n=%d rows=%d: tile[%d] was written", n, rows, i)
		}
	}
}

func TestUnpackColumnsMatchesGather(t *testing.T) {
	for _, n := range []int{2, 16, 64, 256} {
		for _, rows := range []int{1, 2, 3, 4, 5, 64, 130} {
			for _, conjScale := range []bool{false, true} {
				for k0 := 0; k0 < n; k0 += fft.MoveRuns {
					checkUnpackColumns(t, n, rows, k0, min(fft.MoveRuns, n-k0), conjScale, int64(n*rows+k0))
				}
				checkUnpackColumns(t, n, rows, n/2, 1, conjScale, 7)
				checkUnpackColumns(t, n, rows, 1, 0, conjScale, 8)
			}
		}
	}
}

func FuzzUnpackColumns(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint16(0), uint8(2), false, int64(1))
	f.Add(uint8(10), uint8(64), uint16(960), uint8(64), true, int64(2))
	f.Add(uint8(7), uint8(5), uint16(3), uint8(61), true, int64(3))
	f.Fuzz(func(t *testing.T, logN, rows uint8, k0 uint16, w uint8, conjScale bool, seed int64) {
		n := 1 << (1 + int(logN)%10)
		k := int(k0) % n
		checkUnpackColumns(t, n, 1+int(rows)%140, k, int(w)%(min(fft.MoveRuns, n-k)+1), conjScale, seed)
	})
}

// checkScaleFrom holds the fused unpack + scale of a window to the
// sweep it replaces: unpack the whole column, Scale it, take the window.
func checkScaleFrom(t *testing.T, logTotal, n1, index, k0, w int, seed int64) {
	t.Helper()
	tw := fft.TwoLevelTwiddles(1 << logTotal)
	col := randComplex(n1, seed)
	f := fft.GetSoAFrame(n1)
	defer f.Release()
	for k, v := range col {
		f.Re[k], f.Im[k] = real(v), imag(v)
	}
	tw.Scale(col, index)
	got := make([]complex128, w+1)
	got[w] = sentinel
	tw.ScaleFrom(got[:w], f.Re[k0:], f.Im[k0:], index, k0)
	for i, v := range got[:w] {
		if !sameBits(v, col[k0+i]) {
			t.Fatalf("N=2^%d index=%d k0=%d: bin %d = %v, Scale gives %v", logTotal, index, k0, k0+i, v, col[k0+i])
		}
	}
	if !sameBits(got[w], sentinel) {
		t.Fatalf("N=2^%d index=%d k0=%d w=%d: wrote past the window", logTotal, index, k0, w)
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

// TestStageKernelMatchesTileKernel: the moves around ColStages and
// RowStages — pack into the vector's own memory, stages there, unpack
// (+ scale) out of it — give the bits Cols and Rows give, at factor
// lengths on both sides of the pack's and the move's tile sides.
func TestStageKernelMatchesTileKernel(t *testing.T) {
	for _, f := range [][2]int{{2, 2}, {4, 16}, {32, 64}, {64, 32}, {128, 256}, {16, 1024}, {2048, 8}} {
		n1, n2 := f[0], f[1]
		fs, err := fft.NewFourStep(n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		tw := fft.TwoLevelTwiddles(n1 * n2)

		const cols = 3
		src := randComplex(n1*cols, int64(n1))
		want := make([]complex128, cols*n1)
		for v := 0; v < cols; v++ {
			for j := 0; j < n1; j++ {
				want[v*n1+j] = src[j*cols+v]
			}
		}
		fs.Cols(want, 5)
		tile := make([]complex128, cols*n1)
		runs := make([]complex128, fft.MoveRuns*cols)
		for b := 0; b < fft.PackColumnTiles(fft.Log2(n1)); b++ {
			fft.PackColumns(tile, fft.Log2(n1), b, cols, false, runs,
				func(run []complex128, j int) { copy(run, src[j*cols:]) })
		}
		got := make([]complex128, n1)
		for v := 0; v < cols; v++ {
			fr := fft.FrameOf(tile[v*n1 : (v+1)*n1])
			fs.ColStages(&fr)
			tw.ScaleFrom(got, fr.Re, fr.Im, 5+v, 0)
			for k := range got {
				if got[k] != want[v*n1+k] {
					t.Fatalf("%d×%d column %d bin %d: stages %v, Cols %v", n1, n2, v, k, got[k], want[v*n1+k])
				}
			}
		}

		row := randComplex(n2, int64(n2)+1)
		wantRow := append([]complex128(nil), row...)
		fs.Rows(wantRow)
		scratch := append([]complex128(nil), row...)
		fr := fft.FrameOf(row)
		fr.PackTiles(scratch, 0, fft.SoAPackTiles(fft.Log2(n2)), fft.Log2(n2), false)
		fs.RowStages(&fr)
		gotRow := make([]complex128, n2)
		for k0 := 0; k0 < n2; k0 += fft.MoveRuns { // one row: a run per bin
			fft.UnpackColumns(gotRow[k0:], row, n2, 1, k0, min(fft.MoveRuns, n2-k0), false, 0)
		}
		for k := range gotRow {
			if gotRow[k] != wantRow[k] {
				t.Fatalf("%d×%d row bin %d: stages %v, Rows %v", n1, n2, k, gotRow[k], wantRow[k])
			}
		}
	}
}
