package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// FourStepPlan is the Bailey four-step factorization of an N-point DFT
// into N = N1·N2: column FFTs, a twiddle scaling, row FFTs, and a final
// transpose. It is the decomposition large transforms shard across
// machines — each column (length N1) and each row (length N2) is an
// independent sub-FFT, so the two FFT steps fan out as batches while
// the transposes and the twiddle step are embarrassingly parallel
// element permutations.
//
// With the input read row-major as an N1×N2 matrix A[j1][j2] =
// x[j1·N2+j2] and ω = exp(−2πi/N), the identity is
//
//	X[k2·N1+k1] = Σ_{j2} ( Σ_{j1} A[j1][j2]·ω_{N1}^{j1·k1} ) · ω^{j2·k1} · ω_{N2}^{j2·k2}
//
// so the steps are:
//
//  1. transpose A into N2 contiguous columns of length N1,
//  2. FFT every column and scale column j2's bin k1 by ω^{j2·k1}
//     (the twiddle segment),
//  3. transpose back into N1 contiguous rows of length N2 and FFT
//     every row,
//  4. transpose once more so bin k lands at index k2·N1+k1 — exactly
//     the ordering of the direct N-point transform.
//
// Transform is the serial reference. Steps 2 and 3 are one tile kernel,
// Cols and Rows, which internal/ooc calls tile by tile on the same
// sub-plans; internal/dist replays the steps with the two FFT passes
// dispatched to remote workers. Steps 1, 3 and 4 move their data
// through TransposeBlock (transpose.go), as the workers and the
// coordinator do slab by slab.
type FourStepPlan struct {
	N1, N2, N int

	col *Plan // N1-point sub-plan (columns)
	row *Plan // N2-point sub-plan (rows)

	wCol, wRow []complex128   // sub-transform twiddle tables
	tw         *TwoLevelTable // ω_N: the step-2 scaling factors

	scratch sync.Pool // *[]complex128 of N elements: what Transform transposes into
}

// NewFourStep builds the factorization for N = n1·n2. Both factors must
// be powers of two ≥ 2 (errors wrap ErrUnsupportedLength); the
// sub-plans use task size min(64, factor), the engine default.
func NewFourStep(n1, n2 int) (*FourStepPlan, error) {
	if Log2(n1) < 1 {
		return nil, fmt.Errorf("%w: N1=%d must be a power of two ≥ 2", ErrUnsupportedLength, n1)
	}
	if Log2(n2) < 1 {
		return nil, fmt.Errorf("%w: N2=%d must be a power of two ≥ 2", ErrUnsupportedLength, n2)
	}
	col, err := NewPlan(n1, min(64, n1))
	if err != nil {
		return nil, err
	}
	row, err := NewPlan(n2, min(64, n2))
	if err != nil {
		return nil, err
	}
	n := n1 * n2
	return &FourStepPlan{
		N1: n1, N2: n2, N: n,
		col: col, row: row,
		wCol: Twiddles(n1), wRow: Twiddles(n2), tw: TwoLevelTwiddles(n),
	}, nil
}

// GatherColumns transposes the row-major N1×N2 input into N2 contiguous
// columns: dst[j2·N1+j1] = data[j1·N2+j2]. Both slices must have length
// N (panics wrap ErrLengthMismatch).
func (p *FourStepPlan) GatherColumns(dst, data []complex128) {
	p.checkLen("GatherColumns dst", dst)
	p.checkLen("GatherColumns data", data)
	TransposeBlock(dst, p.N1, data, p.N2, p.N1, p.N2)
}

// ScatterColumns transposes the column buffer back into N1 contiguous
// rows: dst[k1·N2+j2] = buf[j2·N1+k1], the layout the row FFTs consume.
func (p *FourStepPlan) ScatterColumns(dst, buf []complex128) {
	p.checkLen("ScatterColumns dst", dst)
	p.checkLen("ScatterColumns buf", buf)
	TransposeBlock(dst, p.N2, buf, p.N1, p.N2, p.N1)
}

// FinalTranspose writes the row-FFT output into direct-DFT bin order:
// dst[k2·N1+k1] = data[k1·N2+k2].
func (p *FourStepPlan) FinalTranspose(dst, data []complex128) {
	p.checkLen("FinalTranspose dst", dst)
	p.checkLen("FinalTranspose data", data)
	TransposeBlock(dst, p.N1, data, p.N2, p.N1, p.N2)
}

// TwiddleDirect computes ω_n^e = exp(−2πi·e/n) for e in [0, n) without
// a table, bit for bit the entry Twiddles(n) stores: the first half-turn
// evaluates the same cos/sin expression, the second half is its
// negation. It fills the two-level table below.
func TwiddleDirect(e, n int) complex128 {
	half := n / 2
	neg := false
	if e >= half {
		e -= half
		neg = true
	}
	ang := -2 * math.Pi * float64(e) / float64(n)
	w := complex(math.Cos(ang), math.Sin(ang))
	if neg {
		return -w
	}
	return w
}

// TwoLevelTable evaluates the four-step scaling factors ω_N^e from two
// short tables instead of one of N/2 entries: with h = ⌈log₂N/2⌉,
//
//	ω_N^e = hi[e>>h] · lo[e&(2^h−1)],  hi[i] = ω_N^(i·2^h),  lo[j] = ω_N^j
//
// — 2·2^10 entries (32 KiB, L1-resident) at N = 2^20 and 512 KiB at
// 2^28, where Twiddles(N) would be 8 MiB and 2 GiB. Every entry is
// TwiddleDirect's, so a factor carries one rounding more than a direct
// evaluation (the product's); each component stays within 2 ε of the
// exact root, as TwiddleDirect's own do.
//
// Every power-of-two four-step path — FourStepPlan, the out-of-core
// phases, the cluster's worker and local column shards — scales through
// this one table, which is what makes them agree bit for bit in step 2.
type TwoLevelTable struct {
	n      int
	h      uint
	hi, lo []complex128
}

// twoLevel memoizes one table per log₂N for the life of the process;
// the tables are immutable and the largest a caller can name is bounded
// by the transform it can hold.
var twoLevel [bits.UintSize]atomic.Pointer[TwoLevelTable]

// TwoLevelTwiddles returns the two-level table for modulus n, a power
// of two ≥ 2, building it on first use.
func TwoLevelTwiddles(n int) *TwoLevelTable {
	lg := Log2(n)
	if lg < 1 {
		panic("fft: table size must be a power of two ≥ 2")
	}
	if t := twoLevel[lg].Load(); t != nil {
		return t
	}
	h := uint(lg+1) / 2
	t := &TwoLevelTable{n: n, h: h, hi: make([]complex128, n>>h), lo: make([]complex128, 1<<h)}
	for i := range t.hi {
		t.hi[i] = TwiddleDirect(i<<h, n)
	}
	for j := range t.lo {
		t.lo[j] = TwiddleDirect(j, n)
	}
	twoLevel[lg].CompareAndSwap(nil, t)
	return twoLevel[lg].Load()
}

// At returns ω_N^e for e in [0, N).
func (t *TwoLevelTable) At(e int) complex128 {
	return t.hi[e>>t.h] * t.lo[e&(len(t.lo)-1)]
}

// Scale applies the four-step twiddle segment to one transformed
// column: col[k] *= ω_N^{index·k}, index being the column's j2. The
// exponent is reduced mod N, so any index is accepted.
func (t *TwoLevelTable) Scale(col []complex128, index int) {
	idx := index % t.n
	if idx < 0 {
		idx += t.n
	}
	e := 0
	for k := range col {
		col[k] *= t.At(e)
		e += idx
		if e >= t.n {
			e -= t.n
		}
	}
}

// Cols is the column half of the four-step tile kernel. vecs holds
// whole contiguous N1-point columns j2 = startVec, startVec+1, …; each
// is forward-transformed in place through the serial SoA pipeline
// (radix-4 codelets, pooled frame) and scaled by ω_N^{j2·k}. Columns
// are independent, so the in-core transform passes the whole matrix as
// one tile while the out-of-core phases pass one column per worker, and
// both produce the same bits.
func (p *FourStepPlan) Cols(vecs []complex128, startVec int) {
	if len(vecs)%p.N1 != 0 {
		panic(LengthError("column tile", len(vecs), p.N1))
	}
	for v := 0; v*p.N1 < len(vecs); v++ {
		col := vecs[v*p.N1 : (v+1)*p.N1]
		p.col.TransformSoA(col, p.wCol, KernelSoARadix4)
		p.tw.Scale(col, startVec+v)
	}
}

// Rows is the row half of the tile kernel: every contiguous N2-point
// row of vecs is forward-transformed in place, same pipeline as Cols.
func (p *FourStepPlan) Rows(vecs []complex128) {
	if len(vecs)%p.N2 != 0 {
		panic(LengthError("row tile", len(vecs), p.N2))
	}
	for v := 0; v*p.N2 < len(vecs); v++ {
		p.row.TransformSoA(vecs[v*p.N2:(v+1)*p.N2], p.wRow, KernelSoARadix4)
	}
}

// ColStages and RowStages are the tile kernel with the moves left to
// the caller: the butterfly passes of Cols (without its scaling) and of
// Rows on a frame that already holds the vector in bit-reversed order,
// leaving its transform in the planes — no pooled frame, no pack, no
// unpack. The out-of-core phases, whose staging moves pack and unpack on
// their way through, run these between them; the arithmetic is the
// passes Cols and Rows run, so the bits agree.
func (p *FourStepPlan) ColStages(f *SoAFrame) {
	if len(f.Re) != p.N1 || len(f.Im) != p.N1 {
		panic(LengthError("column planes", len(f.Re), p.N1))
	}
	p.col.SoAStages(f, p.col.SoATwiddles(p.wCol), KernelSoARadix4)
}

// RowStages is ColStages for an N2-point row: Rows without its moves.
func (p *FourStepPlan) RowStages(f *SoAFrame) {
	if len(f.Re) != p.N2 || len(f.Im) != p.N2 {
		panic(LengthError("row planes", len(f.Re), p.N2))
	}
	p.row.SoAStages(f, p.row.SoATwiddles(p.wRow), KernelSoARadix4)
}

// ScaleFrom is Scale fused with the unpack of a window of the column:
// dst[i] = (re[i] + i·im[i]) · ω_N^{index·(k0+i)}, re and im being the
// planes of the transformed column from bin k0 on. Element for element
// it is Scale's product.
func (t *TwoLevelTable) ScaleFrom(dst []complex128, re, im []float64, index, k0 int) {
	idx := index % t.n
	if idx < 0 {
		idx += t.n
	}
	e := int(int64(idx) * int64(k0) % int64(t.n))
	re, im = re[:len(dst)], im[:len(dst)]
	for i := range dst {
		dst[i] = complex(re[i], im[i]) * t.At(e)
		e += idx
		if e >= t.n {
			e -= t.n
		}
	}
}

// KernelBytes returns what the tile kernel keeps resident however many
// goroutines run it: the sub-plans' twiddle and SoA level tables and
// the two-level table. (Cols and Rows also take a pooled frame each
// while they run; ColStages and RowStages work in the caller's memory.)
func (p *FourStepPlan) KernelBytes() int64 {
	return 24*int64(p.N1+p.N2) + 16*int64(len(p.tw.hi)+len(p.tw.lo))
}

// Transform applies the N-point forward FFT in place via the four-step
// factorization, the whole matrix as one tile of the kernel. The output
// agrees with Plan.Transform bin for bin (within floating-point
// tolerance — the two algorithms order the arithmetic differently). Its
// one N-element scratch buffer is pooled on the plan: every element is
// written by the gather before it is read, and a fresh 16 MiB of zeroed
// pages per 2^20-point call cost as much as a transposition.
func (p *FourStepPlan) Transform(data []complex128) {
	p.checkLen("data", data)
	bp, _ := p.scratch.Get().(*[]complex128)
	if bp == nil {
		b := make([]complex128, p.N)
		bp = &b
	}
	defer p.scratch.Put(bp)
	buf := *bp
	p.GatherColumns(buf, data)
	p.Cols(buf, 0)
	p.ScatterColumns(data, buf)
	p.Rows(data)
	p.FinalTranspose(buf, data)
	copy(data, buf)
}

// InverseTransform applies the inverse FFT in place via the conjugation
// identity — the same trick Plan.InverseTransform uses, so
// Transform/InverseTransform round-trip to the input.
func (p *FourStepPlan) InverseTransform(data []complex128) {
	p.checkLen("data", data)
	conjugate(data)
	p.Transform(data)
	conjugateScale(data, 1/float64(p.N))
}

func (p *FourStepPlan) checkLen(what string, s []complex128) {
	if len(s) != p.N {
		panic(LengthError(what, len(s), p.N))
	}
}
