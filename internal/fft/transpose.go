package fft

import (
	"fmt"
	"sync"
)

// tileSide is the side of the square tile every transposition moves
// through. At 64 a tile is 64 KiB — resident in any L2 and mostly in
// L1 — and a tile row is a 1 KiB run of the big arrays. The pack's 32
// (soaTileBits) keeps the tile wholly in L1 but halves the run, and on
// arrays that come from memory rather than the last-level cache every
// run pays a latency: one cold 1024×1024 transposition takes 7.8 ms at
// 32 and 6.9 ms at 64, and the cluster's 2^20-point op 49.8 ms against
// 46.0 (6 / 6 alternated runs); on arrays already in L3 the order is
// the other way round, 3.2 against 4.2 ms (EXPERIMENTS "Cluster:
// transposes in tiles" has every shape tried).
const tileSide = 64

// MoveTileBytes is what one transposition in flight keeps resident — the
// term a caller that budgets its memory (internal/ooc) counts per
// goroutine that may be inside one.
const MoveTileBytes = tileSide * tileSide * 16

// tilePool holds the tiles: 64 KiB is too much to zero on the stack of
// every call.
var tilePool = sync.Pool{New: func() any { return new([tileSide * tileSide]complex128) }}

// tileMap is what a transposition does to each element on the way.
type tileMap uint8

const (
	mapCopy      tileMap = iota // dst = src
	mapConj                     // dst = conj(src)
	mapConjScale                // dst = conj(src)·s
)

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
// lines (SoAFrame.PackTiles does the same for the bit reversal). Ragged
// edges are shorter runs of the same loops.
//
// Distinct blocks of one matrix write disjoint elements, so callers may
// transpose slabs concurrently.
func TransposeBlock(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int) {
	transposeSlice(dst, ldDst, src, ldSrc, rows, cols, mapCopy, 0)
}

// TransposeBlockConj is TransposeBlock with every element conjugated:
// the inverse transform's leading conjugation folded into the move.
func TransposeBlockConj(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int) {
	transposeSlice(dst, ldDst, src, ldSrc, rows, cols, mapConj, 0)
}

// TransposeBlockConjScale is TransposeBlock with every element
// conjugated and scaled, dst = conj(src)·s: the inverse transform's
// trailing sweep folded into the move, the same arithmetic per element
// as conjugateScale.
func TransposeBlockConjScale(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int, s float64) {
	transposeSlice(dst, ldDst, src, ldSrc, rows, cols, mapConjScale, s)
}

// TransposeBlockFrom is TransposeBlock for a source that is not a
// []complex128 — the worker's exchange receive holds wire bytes: load
// fills run with source elements (r, c), (r, c+1), …, (r, c+len(run)−1),
// and is called once per tile row, so the source is decoded straight
// into the tile the move owns and never staged in between.
func TransposeBlockFrom(dst []complex128, ldDst, rows, cols int, load func(run []complex128, r, c int)) {
	transposeTiles(dst, ldDst, rows, cols, load, mapCopy, 0)
}

// transposeSlice is transposeTiles with a slice as the source: the fill
// step copies runs out of a rows×cols window of src, rows ldSrc apart.
func transposeSlice(dst []complex128, ldDst int, src []complex128, ldSrc, rows, cols int, m tileMap, s float64) {
	checkWindow("src", len(src), ldSrc, rows, cols)
	transposeTiles(dst, ldDst, rows, cols, func(run []complex128, r, c int) { copy(run, src[r*ldSrc+c:]) }, m, s)
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

// transposeTiles is the one tiled move behind the exported variants:
// load fills a tile row from the source, m is chosen per gathered run,
// not per element.
func transposeTiles(dst []complex128, ldDst, rows, cols int, load func(run []complex128, r, c int), m tileMap, s float64) {
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
			for c := 0; c < w; c++ {
				run := dst[(c0+c)*ldDst+r0:][:h]
				switch m {
				case mapCopy:
					for r := range run {
						run[r] = tile[r*tileSide+c]
					}
				case mapConj:
					for r := range run {
						v := tile[r*tileSide+c]
						run[r] = complex(real(v), -imag(v))
					}
				case mapConjScale:
					for r := range run {
						v := tile[r*tileSide+c]
						run[r] = complex(real(v)*s, -imag(v)*s)
					}
				}
			}
		}
	}
}
