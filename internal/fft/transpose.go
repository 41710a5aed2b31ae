package fft

import (
	"fmt"
	"sync"
)

// tileSide is the side of the square tile every transposition moves
// through. At 64 a tile is 64 KiB — resident in any L2 and mostly in
// L1 — and a tile row is a 1 KiB run of the big arrays. A side of 32
// keeps the tile wholly in L1 but halves the run, and on
// arrays that come from memory rather than the last-level cache every
// run pays a latency: one cold 1024×1024 transposition takes 7.8 ms at
// 32 and 6.9 ms at 64, and the cluster's 2^20-point op 49.8 ms against
// 46.0 (6 / 6 alternated runs); on arrays already in L3 the order is
// the other way round, 3.2 against 4.2 ms (every shape tried is in
// docs/history/11-cluster-transposes-in-tiles.md).
const tileSide = 64

// MoveTileBytes is what one transposition in flight keeps resident — the
// term a caller that budgets its memory (internal/ooc) counts per
// goroutine that may be inside one.
const MoveTileBytes = tileSide * tileSide * 16

// MoveRuns is the number of vectors one strip of a column move stages —
// the side of the transposition's tile, for its reasons: a strip's
// columns are one tile column wide, so each source row is read as one
// 1 KiB run.
const MoveRuns = tileSide

// tilePool holds the tiles: 64 KiB is too much to zero on the stack of
// every call.
var tilePool = sync.Pool{New: func() any { return new([tileSide * tileSide]complex128) }}

// TransposeBlock writes the transpose of a rows×cols sub-matrix:
//
//	dst[c·ldDst + r] = src[r·ldSrc + c],  0 ≤ r < rows, 0 ≤ c < cols
//
// with arbitrary leading dimensions ldSrc ≥ cols and ldDst ≥ rows, so
// either side may be a window into a larger matrix; nothing outside the
// window is read or written. dst and src must not overlap. A shape the
// slices cannot hold panics with an error wrapping ErrLengthMismatch.
//
// The element-at-a-time loop this replaces stores one element per
// ldDst·16 bytes: with a 1024-column matrix that is a 16 KiB stride — a
// new page and the same L1 set on every store, the host's version of
// the paper's single-bank schedule. Here the block moves in
// tileSide×tileSide tiles: tileSide contiguous runs of src are copied
// into a cache-resident tile, and each tile column is gathered into one
// contiguous run of dst. The strided half of the transpose stays inside
// the tile, so every access to the big arrays is a run of whole cache
// lines (Plan.SoAPack does the same for the bit reversal). Ragged
// edges are shorter runs of the same loops.
//
// Distinct blocks of one matrix write disjoint elements, so callers may
// transpose slabs concurrently.
func TransposeBlock(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int) {
	checkWindow("src", len(src), ldSrc, rows, cols)
	TransposeBlockFrom(dst, ldDst, rows, cols, func(run []complex128, r, c int) { copy(run, src[r*ldSrc+c:]) })
}

// TransposeConj is TransposeBlock that, with conj set, stores conj(x)·s
// in place of each element x: the conjugation identity's two sweeps
// riding a move — s = 1 on an inverse's way in, 1/N on its way out.
func TransposeConj(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int, conj bool, s float64) {
	if !conj {
		TransposeBlock(dst, ldDst, src, ldSrc, rows, cols)
		return
	}
	checkWindow("src", len(src), ldSrc, rows, cols)
	TransposeBlockFrom(dst, ldDst, rows, cols, func(run []complex128, r, c int) {
		for i, v := range src[r*ldSrc+c:][:len(run)] {
			run[i] = complex(real(v)*s, -imag(v)*s)
		}
	})
}

// TransposeInto is TransposeConj for a destination small enough to stay
// in cache — internal/ooc's run buffers: no tile stands between the two
// arrays, and none is held. A sweep reads four source rows, each as a
// contiguous run, and stores one cache line of every destination row —
// the strided half of the move stays in the destination's cache lines.
func TransposeInto(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int, conj bool, s float64) {
	checkWindow("src", len(src), ldSrc, rows, cols)
	checkWindow("dst", len(dst), ldDst, cols, rows)
	sr, si := 1.0, 1.0
	if conj {
		sr, si = s, -s
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0, x1 := src[r*ldSrc:][:cols], src[(r+1)*ldSrc:][:cols]
		x2, x3 := src[(r+2)*ldSrc:][:cols], src[(r+3)*ldSrc:][:cols]
		for c, v := range x0 {
			line := dst[c*ldDst+r:][:4]
			line[0] = complex(real(v)*sr, imag(v)*si)
			line[1] = complex(real(x1[c])*sr, imag(x1[c])*si)
			line[2] = complex(real(x2[c])*sr, imag(x2[c])*si)
			line[3] = complex(real(x3[c])*sr, imag(x3[c])*si)
		}
	}
	for ; r < rows; r++ {
		for c, x := range src[r*ldSrc:][:cols] {
			dst[c*ldDst+r] = complex(real(x)*sr, imag(x)*si)
		}
	}
}

// TransposeBlockFrom is TransposeBlock for a source that is not a plain
// []complex128 window — transformed columns, which
// FourStepPlan.TransposeScaled scales on the way, or elements
// conjugated on the way (TransposeConj): load fills run with source
// elements (r, c), (r, c+1), …, (r, c+len(run)−1), and is called once
// per tile row, so the source is converted straight into the tile the
// move owns and never staged in between.
func TransposeBlockFrom(dst []complex128, ldDst, rows, cols int, load func(run []complex128, r, c int)) {
	checkWindow("dst", len(dst), ldDst, cols, rows)
	if rows == 0 || cols == 0 {
		return
	}
	tile := tilePool.Get().(*[tileSide * tileSide]complex128)
	defer tilePool.Put(tile)
	for r0 := 0; r0 < rows; r0 += tileSide {
		h := min(tileSide, rows-r0)
		for c0 := 0; c0 < cols; c0 += tileSide {
			w := min(tileSide, cols-c0)
			for r := 0; r < h; r++ {
				load(tile[r*tileSide:][:w], r0+r, c0)
			}
			// Four tile columns — one cache line of every tile row — per
			// sweep, so each line of the tile is read once.
			c := 0
			for ; c+4 <= w; c += 4 {
				run0 := dst[(c0+c)*ldDst+r0:][:h]
				run1 := dst[(c0+c+1)*ldDst+r0:][:h]
				run2 := dst[(c0+c+2)*ldDst+r0:][:h]
				run3 := dst[(c0+c+3)*ldDst+r0:][:h]
				for r := range run0 {
					line := tile[r*tileSide+c:][:4]
					run0[r], run1[r], run2[r], run3[r] = line[0], line[1], line[2], line[3]
				}
			}
			for ; c < w; c++ {
				run := dst[(c0+c)*ldDst+r0:][:h]
				for r := range run {
					run[r] = tile[r*tileSide+c]
				}
			}
		}
	}
}

// checkWindow panics unless a slice of length n holds a rows×cols
// window whose rows are ld apart.
func checkWindow(what string, n, ld, rows, cols int) {
	if rows < 0 || cols < 0 || ld < cols {
		panic(fmt.Errorf("%w: transpose %s: %d×%d window with leading dimension %d", ErrLengthMismatch, what, rows, cols, ld))
	}
	if need := (rows-1)*ld + cols; rows > 0 && cols > 0 && n < need {
		panic(LengthError("transpose "+what, n, need))
	}
}
