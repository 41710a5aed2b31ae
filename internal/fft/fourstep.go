package fft

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// FourStepPlan is the Bailey four-step factorization of an N-point DFT
// into N = N1·N2: column FFTs, a twiddle scaling, row FFTs, and a final
// transpose. It is the decomposition large transforms shard across
// machines and stage through disk — each column (length N1) and each
// row (length N2) is an independent sub-FFT, so the two FFT steps fan
// out as batches while the moves between them are embarrassingly
// parallel element permutations.
//
// With the input read row-major as an N1×N2 matrix A[j1][j2] =
// x[j1·N2+j2] and ω = exp(−2πi/N), the identity is
//
//	X[k2·N1+k1] = Σ_{j2} ( Σ_{j1} A[j1][j2]·ω_{N1}^{j1·k1} ) · ω^{j2·k1} · ω_{N2}^{j2·k2}
//
// The plan runs it as five staged steps, each moving or sweeping every
// element once, on interleaved complex128 vectors in natural order:
//
//  1. ColumnsFrom: a tiled transpose moves column j2 into a contiguous
//     N1-element vector — conjugated on the way in for the inverse;
//  2. ColFFTs: the N1-point mixed-radix forward schedule on each column;
//  3. TransposeScaled: bin k1 of column j2, scaled by ω^{j2·k1}
//     (twoLevelTable.scaleFrom), is transposed into row k1;
//  4. RowFFTs: the N2-point mixed-radix forward schedule on each row;
//  5. TransposeRows: bin k2 of row k1 is transposed into X[k2·N1+k1] —
//     times conj·1/N for the inverse.
//
// Transform composes them over the caller's array and one pooled
// N-element buffer. internal/ooc composes the same steps around its
// spill store, and internal/dist splits them between the coordinator
// (1 and 5) and the workers (2–4), so every path runs the same
// arithmetic per element and produces the same bits — on every build,
// since the mixed-radix vector codelets give the Go codelets' bits.
type FourStepPlan struct {
	N1, N2, N int

	col, row *Schedule      // the N1-point (columns) and N2-point (rows) forward schedules
	tw       *twoLevelTable // ω_N: the step-3 scaling factors

	scratch sync.Pool // *[]complex128 of N elements: the buffer Transform stages through
}

// NewFourStep builds the factorization for N = n1·n2. Both factors must
// be powers of two ≥ 2 (errors wrap ErrUnsupportedLength). Its tables
// are shared process-wide — the sub-plans' and the two-level table — so
// a plan costs one allocation after the first of its factors.
func NewFourStep(n1, n2 int) (*FourStepPlan, error) {
	if Log2(n1) < 1 {
		return nil, fmt.Errorf("%w: N1=%d must be a power of two ≥ 2", ErrUnsupportedLength, n1)
	}
	if Log2(n2) < 1 {
		return nil, fmt.Errorf("%w: N2=%d must be a power of two ≥ 2", ErrUnsupportedLength, n2)
	}
	return &FourStepPlan{
		N1: n1, N2: n2, N: n1 * n2,
		col: factorOf(n1).fwd, row: factorOf(n2).fwd, tw: twoLevelTwiddles(n1 * n2),
	}, nil
}

// NearSquareFactor splits a power-of-two n into the most balanced
// power-of-two pair n1 ≤ n2: the four-step split internal/dist and
// internal/ooc run, minimizing the longer of the two sub-FFT lengths.
func NearSquareFactor(n int) (n1, n2 int) {
	l1 := Log2(n) / 2
	return 1 << l1, n >> l1
}

// factors memoizes one mixed-radix plan per four-step factor length
// log₂n. A MixedPlan is immutable, so one serves every FourStepPlan for
// the life of the process, as the two-level tables do.
var factors [bits.UintSize]atomic.Pointer[MixedPlan]

// factorOf returns the plan for n, a power of two ≥ 2, building it on
// first use.
func factorOf(n int) *MixedPlan {
	lg := Log2(n)
	if mp := factors[lg].Load(); mp != nil {
		return mp
	}
	mp, err := NewMixedPlan(n)
	must(err) // unreachable: n is a power of two
	factors[lg].CompareAndSwap(nil, mp)
	return factors[lg].Load()
}

// twiddleDirect computes ω_n^e = exp(−2πi·e/n) for e in [0, n) without
// a table: root(e, n) on the first half-turn, the negation of
// root(e − n/2, n) on the second, so an entry below n/2 is bit for bit
// the one Twiddles(n) stores and one above is its exact negation. It
// fills the two-level table below.
func twiddleDirect(e, n int) complex128 {
	if half := n / 2; e >= half {
		return -root(e-half, n)
	}
	return root(e, n)
}

// twoLevelTable evaluates the four-step scaling factors ω_N^e from two
// short tables instead of one of N/2 entries: with h = ⌈log₂N/2⌉,
//
//	ω_N^e = hi[e>>h] · lo[e&(2^h−1)],  hi[i] = ω_N^(i·2^h),  lo[j] = ω_N^j
//
// — 2·2^10 entries (32 KiB, L1-resident) at N = 2^20 and 512 KiB at
// 2^28, where Twiddles(N) would be 8 MiB and 2 GiB. Every entry is
// twiddleDirect's, so a factor carries one rounding more than a direct
// evaluation (the product's); each component stays within 2 ε of the
// exact root, as twiddleDirect's own do.
//
// Every four-step path scales through this one table, in
// FourStepPlan.TransposeScaled, which is what makes them agree bit for
// bit in step 3.
type twoLevelTable struct {
	n      int
	h      uint
	hi, lo []complex128
}

// twoLevel memoizes one table per log₂N for the life of the process;
// the tables are immutable and the largest a caller can name is bounded
// by the transform it can hold.
var twoLevel [bits.UintSize]atomic.Pointer[twoLevelTable]

// twoLevelTwiddles returns the two-level table for modulus n, a power
// of two ≥ 2, building it on first use.
func twoLevelTwiddles(n int) *twoLevelTable {
	lg := Log2(n)
	if lg < 1 {
		panic("fft: table size must be a power of two ≥ 2")
	}
	if t := twoLevel[lg].Load(); t != nil {
		return t
	}
	h := uint(lg+1) / 2
	t := &twoLevelTable{n: n, h: h, hi: make([]complex128, n>>h), lo: make([]complex128, 1<<h)}
	for i := range t.hi {
		t.hi[i] = twiddleDirect(i<<h, n)
	}
	for j := range t.lo {
		t.lo[j] = twiddleDirect(j, n)
	}
	twoLevel[lg].CompareAndSwap(nil, t)
	return twoLevel[lg].Load()
}

// at returns ω_N^e for e in [0, N).
func (t *twoLevelTable) at(e int) complex128 {
	return t.hi[e>>t.h] * t.lo[e&(len(t.lo)-1)]
}

// scaleFrom is the twiddle step over a window of a transformed
// column: dst[i] = src[i] · ω_N^{index·(k0+i)}, src being the column
// from bin k0 on. The exponent is reduced mod N, so any index is
// accepted. dst may be src.
func (t *twoLevelTable) scaleFrom(dst, src []complex128, index, k0 int) {
	idx := index % t.n
	if idx < 0 {
		idx += t.n
	}
	e := int(int64(idx) * int64(k0) % int64(t.n))
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = v * t.at(e)
		e += idx
		if e >= t.n {
			e -= t.n
		}
	}
}

// ColumnsFrom is step 1: it moves columns [0, cols) of the row-major
// N1-row matrix src (rows N2 apart) into dst, column v as the contiguous
// vector dst[v·N1:][:N1], conjugated if conj is set — a tiled
// transpose, so src is read and dst written in runs of whole cache
// lines.
func (p *FourStepPlan) ColumnsFrom(dst, src []complex128, cols int, conj bool) {
	TransposeConj(dst, p.N1, src, p.N2, p.N1, cols, conj, 1)
}

// ColFFTs is step 2: the N1-point forward transform, in place, of every
// column of cols — len(cols)/N1 contiguous vectors.
func (p *FourStepPlan) ColFFTs(cols []complex128) { each(p.col, cols) }

// TransposeScaled is step 3, the scale fed into TransposeBlockFrom: of
// count transformed columns, column j0+v's bins [k0, k0+bins) held as
// src[v·ldSrc:][:bins], it writes bin k scaled by ω_N^{(j0+v)·k} at
// dst[(k−k0)·ldDst + v]. Every path assembles its rows here, from whole
// columns (ldSrc = N1) or a packed window (an exchange, a spill segment).
func (p *FourStepPlan) TransposeScaled(dst []complex128, ldDst int, src []complex128, ldSrc, j0, count, k0, bins int) {
	checkWindow("src", len(src), ldSrc, count, bins)
	TransposeBlockFrom(dst, ldDst, count, bins, func(run []complex128, v, k int) {
		p.tw.scaleFrom(run, src[v*ldSrc+k:], j0+v, k0+k)
	})
}

// RowFFTs is step 4: the N2-point forward transform, in place, of every
// row of rows — len(rows)/N2 contiguous vectors.
func (p *FourStepPlan) RowFFTs(rows []complex128) { each(p.row, rows) }

// TransposeRows is step 5: the final transpose of count transformed
// rows, row r held as rows[r·N2:][:N2], bin k2 of row r landing at
// dst[k2·N1 + r] — so a block of rows lands in its own slots of the
// whole output when dst starts at the block's first row. With inverse
// set an element is conj(x)/N.
func (p *FourStepPlan) TransposeRows(dst, rows []complex128, count int, inverse bool) {
	TransposeConj(dst, p.N1, rows, p.N2, count, p.N2, inverse, 1/float64(p.N))
}

// KernelBytes returns what the steps keep resident however many
// goroutines run them: the sub-plans' stage twiddles — n−1 for an
// n-point mixed plan, since a stage's (R−1)·M are its length less the
// next one's — and the two-level table. (Each goroutine inside a step
// also holds a transposition tile and a sub-plan's work buffer while it
// runs.)
func (p *FourStepPlan) KernelBytes() int64 {
	return 16 * int64(p.N1-1+p.N2-1+len(p.tw.hi)+len(p.tw.lo))
}

// Transform applies the N-point forward FFT in place via the four-step
// factorization. The output agrees with Plan.Transform bin for bin
// (within floating-point tolerance — the two algorithms order the
// arithmetic differently). The steps alternate between data and one
// pooled N-element buffer: the columns a strip of MoveRuns at a time
// (moved into the buffer, transformed there, scaled back into the strip
// of data they came from), then every row copied into the buffer and
// transformed there, and the final transpose back — four moves, each
// element written once per move. A wrong-length array is returned,
// untouched, as an error wrapping ErrLengthMismatch.
func (p *FourStepPlan) Transform(data []complex128) error { return p.transform(data, false) }

// InverseTransform applies the inverse FFT in place via the conjugation
// identity, folded into the first and last moves, so
// Transform/InverseTransform round-trip to the input.
func (p *FourStepPlan) InverseTransform(data []complex128) error { return p.transform(data, true) }

func (p *FourStepPlan) transform(data []complex128, inverse bool) error {
	if len(data) != p.N {
		return LengthError("data", len(data), p.N)
	}
	bp, _ := p.scratch.Get().(*[]complex128)
	if bp == nil {
		b := make([]complex128, p.N)
		bp = &b
	}
	defer p.scratch.Put(bp)
	buf := *bp
	for c0 := 0; c0 < p.N2; c0 += MoveRuns {
		w := min(MoveRuns, p.N2-c0)
		strip := buf[c0*p.N1 : (c0+w)*p.N1]
		columnStrip(strip, data[c0:], p.N2, w, inverse, p.col)
		p.TransposeScaled(data[c0:], p.N2, strip, p.N1, c0, w, 0, p.N1)
	}
	st := p.row.Acquire(nil)
	for r := 0; r < p.N; r += p.N2 {
		st.Data = buf[r : r+p.N2]
		copy(st.Data, data[r:])
		p.row.Exec(st)
	}
	st.Release()
	p.TransposeRows(data, buf, p.N1, inverse)
	return nil
}
