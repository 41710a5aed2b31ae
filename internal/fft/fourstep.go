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
// element once:
//
//  1. PackColumnsFrom (PackColumns over memory): gather column j2 and
//     pack it, bit-reversed, into its own split planes — conjugated on
//     the way in for the inverse;
//  2. ColStages: the N1-point SoA radix-4 sweeps on those planes;
//  3. TransposeScaled: unpack bin k1 of column j2, scale it by
//     ω^{j2·k1} (TwoLevelTable.ScaleFrom) and transpose it into row k1;
//  4. RowFrom: pack row k1 into planes and run the N2-point sweeps;
//  5. UnpackRows (UnpackColumns in TransposeBlockFrom's tiles): unpack
//     bin k2 of row k1 and transpose it into X[k2·N1+k1] — times
//     conj·1/N for the inverse.
//
// Transform composes them over the caller's array and one pooled
// N-element buffer. internal/ooc composes the same steps around its
// spill store, and internal/dist splits them between the coordinator
// (1 and 5) and the workers (2–4), so every path runs the same
// arithmetic per element and produces the same bits.
type FourStepPlan struct {
	N1, N2, N int

	col, row *factor        // the N1-point (columns) and N2-point (rows) sweeps
	tw       *TwoLevelTable // ω_N: the step-3 scaling factors

	scratch sync.Pool // *[]complex128 of N elements: the planes Transform stages through
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
		col: factorOf(n1), row: factorOf(n2), tw: TwoLevelTwiddles(n1 * n2),
	}, nil
}

// NearSquareFactor splits a power-of-two n into the most balanced
// power-of-two pair n1 ≤ n2: the four-step split internal/dist and
// internal/ooc run, minimizing the longer of the two sub-FFT lengths.
func NearSquareFactor(n int) (n1, n2 int) {
	l1 := Log2(n) / 2
	return 1 << l1, n >> l1
}

// factor is one four-step factor length's sweeps: its sub-plan, with
// task size min(64, n) — the engine default — and twiddle table. Both
// are immutable (the plan builds its SoA tables once, under its own
// sync.Once), so one per log₂n serves every FourStepPlan for the life
// of the process, as the two-level tables do.
type factor struct {
	pl *Plan
	w  []complex128
}

var factors [bits.UintSize]atomic.Pointer[factor]

// factorOf returns the factor for n, a power of two ≥ 2, building it on
// first use.
func factorOf(n int) *factor {
	lg := Log2(n)
	if f := factors[lg].Load(); f != nil {
		return f
	}
	pl, err := NewPlan(n, min(64, n))
	must(err) // unreachable: n is a power of two ≥ 2
	factors[lg].CompareAndSwap(nil, &factor{pl: pl, w: Twiddles(n)})
	return factors[lg].Load()
}

// stages runs the factor's SoA radix-4 butterfly passes on a frame that
// holds a vector in bit-reversed order.
func (f *factor) stages(fr *SoAFrame) {
	f.pl.SoAStages(fr, f.pl.SoATwiddles(f.w), KernelSoARadix4)
}

// TwiddleDirect computes ω_n^e = exp(−2πi·e/n) for e in [0, n) without
// a table: root(e, n) on the first half-turn, the negation of
// root(e − n/2, n) on the second, so an entry below n/2 is bit for bit
// the one Twiddles(n) stores and one above is its exact negation. It
// fills the two-level table below.
func TwiddleDirect(e, n int) complex128 {
	if half := n / 2; e >= half {
		return -root(e-half, n)
	}
	return root(e, n)
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
// Every four-step path — FourStepPlan, the out-of-core phases, the
// cluster's workers — scales through this one table, which is what makes
// them agree bit for bit in step 3.
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

// ScaleFrom is the twiddle step fused with the unpack of a window of a
// transformed column: dst[i] = (re[i] + i·im[i]) · ω_N^{index·(k0+i)},
// re and im being the column's planes from bin k0 on. The exponent is
// reduced mod N, so any index is accepted.
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

// PackColumnsFrom is step 1 over memory: it packs columns [0, cols) of
// the row-major N1-row matrix src (rows N2 apart) into dst, column v as
// the planes of dst[v·N1:][:N1] with element j at BitReverse(j) and, with
// conj set, its imaginary part negated. The columns go through
// PackColumns a strip of MoveRuns at a time, each strip's rows staged in
// a pooled tile.
func (p *FourStepPlan) PackColumnsFrom(dst, src []complex128, cols int, conj bool) {
	checkWindow("src", len(src), p.N2, p.N1, cols)
	logN1 := p.col.pl.LogN
	runs := tilePool.Get().(*[tileSide * tileSide]complex128)
	defer tilePool.Put(runs)
	for c0 := 0; c0 < cols; c0 += MoveRuns {
		w := min(MoveRuns, cols-c0)
		for b := 0; b < PackColumnTiles(logN1); b++ {
			PackColumns(dst[c0*p.N1:], logN1, b, w, conj, runs[:], func(run []complex128, j int) {
				copy(run, src[j*p.N2+c0:])
			})
		}
	}
}

// ColStages is step 2: the N1-point SoA radix-4 butterfly passes on a
// frame that already holds a column in bit-reversed order, leaving its
// transform in the planes — no pooled frame, no pack, no unpack.
func (p *FourStepPlan) ColStages(f *SoAFrame) {
	if len(f.Re) != p.N1 || len(f.Im) != p.N1 {
		panic(LengthError("column planes", len(f.Re), p.N1))
	}
	p.col.stages(f)
}

// TransposeScaled is step 3: ScaleFrom fed into TransposeBlockFrom. It
// reads bins [k0, k0+bins) of count transformed columns — column v held
// as the planes of cols[v·N1:][:N1], its column index j0+v — and writes
// bin k of column v, scaled by ω_N^{(j0+v)·k}, at dst[(k−k0)·ld + v]: the
// unpack, the twiddle and the transposition in one tiled move.
func (p *FourStepPlan) TransposeScaled(dst []complex128, ld int, cols []complex128, j0, count, k0, bins int) {
	if len(cols) < count*p.N1 {
		panic(LengthError("column planes", len(cols), count*p.N1))
	}
	if k0 < 0 || k0+bins > p.N1 {
		panic(fmt.Errorf("%w: bins [%d, %d) outside a %d-point column", ErrLengthMismatch, k0, k0+bins, p.N1))
	}
	TransposeBlockFrom(dst, ld, count, bins, func(run []complex128, v, k int) {
		f := FrameOf(cols[v*p.N1 : (v+1)*p.N1])
		p.tw.ScaleFrom(run, f.Re[k0+k:], f.Im[k0+k:], j0+v, k0+k)
	})
}

// RowFrom is step 4: it packs the N2-point row src, bit-reversed, into
// the planes of dst (FrameOf(dst)) and runs the N2-point sweeps there,
// leaving the row's transform in dst's planes for UnpackRows. dst and src
// must not overlap: a caller that transforms a row where it lies copies
// it out first.
func (p *FourStepPlan) RowFrom(dst, src []complex128) {
	if len(dst) != p.N2 || len(src) != p.N2 {
		panic(LengthError("row", min(len(dst), len(src)), p.N2))
	}
	f := FrameOf(dst)
	pl, tw := p.row.pl, p.row.pl.SoATwiddles(p.row.w)
	pl.SoAPack(&f, src, 0, pl.SoAPackTiles(), tw, KernelSoARadix4, false)
	pl.SoASweeps(&f, tw, KernelSoARadix4)
}

// UnpackRows is step 5: the final transpose of count transformed rows,
// row r held as the planes of rows[r·N2:][:N2], bin k2 of row r landing
// at dst[k2·N1 + r] — so a block of rows lands in its own slots of the
// whole output when dst starts at the block's first row. With inverse
// set an element is conj(x)/N. It is the mirror of TransposeScaled:
// UnpackColumns, one row's run at a time, fed into TransposeBlockFrom,
// so dst — whose rows are N1·16 bytes apart, 16 KiB at 2^20 points — is
// only ever written in runs of whole cache lines. (UnpackColumns over
// dst directly stores a line per 16 KiB stride; its own scatter is the
// faster move only while its output stays in cache.)
func (p *FourStepPlan) UnpackRows(dst, rows []complex128, count int, inverse bool) {
	if len(rows) < count*p.N2 {
		panic(LengthError("row planes", len(rows), count*p.N2))
	}
	s := 1 / float64(p.N)
	TransposeBlockFrom(dst, p.N1, count, p.N2, func(run []complex128, r, k int) {
		UnpackColumns(run, rows[r*p.N2:], p.N2, 1, k, len(run), 1, inverse, s)
	})
}

// KernelBytes returns what the steps keep resident however many
// goroutines run them: the sub-plans' twiddle and SoA level tables and
// the two-level table. (PackColumnsFrom also takes a pooled staging tile
// while it runs; the other steps work in the caller's memory.)
func (p *FourStepPlan) KernelBytes() int64 {
	return 24*int64(p.N1+p.N2) + 16*int64(len(p.tw.hi)+len(p.tw.lo))
}

// Transform applies the N-point forward FFT in place via the four-step
// factorization. The output agrees with Plan.Transform bin for bin
// (within floating-point tolerance — the two algorithms order the
// arithmetic differently). The steps alternate between data and one
// pooled N-element buffer: the columns a strip of MoveRuns at a time
// (packed into the buffer, swept there, scaled back into the strip of
// data they came from), then every row into the buffer and the final
// transpose back — four moves, each element written once per move.
// A wrong-length array is returned, untouched, as an error wrapping
// ErrLengthMismatch.
func (p *FourStepPlan) Transform(data []complex128) error { return p.transform(data, false) }

// InverseTransform applies the inverse FFT in place via the conjugation
// identity, folded into the first and last moves — the same per-element
// arithmetic as Plan.InverseTransform, so Transform/InverseTransform
// round-trip to the input.
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
		p.PackColumnsFrom(strip, data[c0:], w, inverse)
		for v := 0; v < w; v++ {
			f := FrameOf(strip[v*p.N1 : (v+1)*p.N1])
			p.ColStages(&f)
		}
		p.TransposeScaled(data[c0:], p.N2, strip, c0, w, 0, p.N1)
	}
	for r := 0; r < p.N1; r++ {
		p.RowFrom(buf[r*p.N2:(r+1)*p.N2], data[r*p.N2:(r+1)*p.N2])
	}
	p.UnpackRows(data, buf, p.N1, inverse)
	return nil
}
