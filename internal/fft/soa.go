package fft

import "sync"

// The SoA kernel family (KernelSoARadix2 / KernelSoARadix4) runs the
// staged decomposition on split real/imag float64 planes instead of
// interleaved complex128. The layout change is what unlocks SIMD: a
// 4-wide vector load of re[] pulls four butterflies' worth of one
// operand, where the interleaved layout would pull two complex values
// and need a shuffle per load. Input is deinterleaved once per
// transform into a pooled SoAFrame (fused with the bit-reversal
// permutation so it costs no extra pass) and reinterleaved once at the
// end; every stage in between works purely on the planes.
//
// Execution differs from the scalar kernels in one structural way.
// Stage 0 keeps the paper's task shape: each task is a contiguous
// P-element group at offset r = 0, so it runs in place through the
// level codelets with the stage's one shared twiddle set. For stages
// ≥ 1 the butterfly distance is already ≥ P, so instead of gathering
// strided groups (which touches twice the cache lines it would on
// interleaved data) the planes are swept level by level with
// unit-stride loads — the butterfly partner is a contiguous run at
// distance 2^gl — against per-level twiddle tables built once per
// plan (SoATwiddles). Each level sweep (or fused level pair for
// KernelSoARadix4) is one barrier-separated pass of embarrassingly
// parallel butterflies; soaPasses lists them as the plan's Schedule, so
// internal/host can shard each across workers.
//
// Both members dispatch the inner loops to assembly codelets (AVX2 on
// amd64, NEON on arm64) when the CPU supports them, with pure-Go
// fallbacks compiled in under the noasm build tag or chosen at runtime
// when the features are missing. The asm-or-generic decision depends
// only on the pass's butterfly distance and the lane width — never on
// how a pass was partitioned (unit boundaries are lane-aligned by
// construction) — so a fixed kernel is bitwise deterministic under any
// schedule: serial, parallel and batched execution agree bit-for-bit,
// exactly the engine contract the scalar kernels provide. Asm and
// generic builds of the *same* kernel agree to rounding (FMA
// contraction), not bitwise — the parity suite pins ≤1e-9.
//
// The radix-4 fusion rests on the same identity as KernelRadix4, in
// level-table form: level gl+1's table satisfies w[j+m] = −i·w[j]
// (m = 2^gl), because the index step m·2^(LogN−gl−2) is always N/4.
// So a fused pair needs only level gl's m twiddles and the first m of
// level gl+1's — b1 = wa·x1, b3 = wa·x3, p/q/s/t sums, ws = wb·s,
// wt = wb·t, and the −i fold y1 = q + (wt_i, −wt_r), y3 = q − that.

// SoAAccel names the codelet backend the SoA kernels run on in this
// process: "avx2+fma", "neon", or "generic" (noasm build, missing CPU
// features, or an architecture without codelets).
func SoAAccel() string { return soaAccel }

// SoATwiddles holds the split-plane twiddle tables for one Plan:
// stage 0's level-major gathered set (all stage-0 groups share offset
// r = 0, so one P−1-entry set serves every task), and a full
// subsampled table per sweep level gl ∈ [LogP, LogN) — Lvl[gl][j] =
// W_N^(j·2^(LogN−gl−1)) — so level sweeps stream their twiddles
// instead of gathering them. Built lazily by Plan.SoATwiddles and
// cached on the plan; the level tables total ≈ 2N float64s, the price
// of contiguity on the hot sweeps.
type SoATwiddles struct {
	S0Re, S0Im   []float64   // stage-0 gathered twiddles, level-major, len P−1
	LvlRe, LvlIm [][]float64 // per-global-level sweep tables; nil below LogP
}

// SoATwiddles returns the split twiddle tables for pl, building them on
// first use. w must be Twiddles(pl.N) — the same table every other
// entry point of the plan requires.
func (pl *Plan) SoATwiddles(w []complex128) *SoATwiddles {
	// Validated outside the Once: a panic inside Do would leave it done
	// with soaTw nil, and every later call with a good table would
	// return nil.
	if len(w) != pl.N/2 {
		panic(LengthError("twiddle table", len(w), pl.N/2))
	}
	pl.soaOnce.Do(func() {
		st := &SoATwiddles{}
		idx := make([]int64, pl.P)
		n0 := pl.TaskTwiddleIndices(0, 0, idx)
		st.S0Re = make([]float64, n0)
		st.S0Im = make([]float64, n0)
		for i, ix := range idx[:n0] {
			st.S0Re[i] = real(w[ix])
			st.S0Im[i] = imag(w[ix])
		}
		st.LvlRe = make([][]float64, pl.LogN)
		st.LvlIm = make([][]float64, pl.LogN)
		for gl := pl.LogP; gl < pl.LogN; gl++ {
			shift := uint(pl.LogN - gl - 1)
			size := 1 << gl
			tr := make([]float64, size)
			ti := make([]float64, size)
			for j := 0; j < size; j++ {
				v := w[j<<shift]
				tr[j], ti[j] = real(v), imag(v)
			}
			st.LvlRe[gl], st.LvlIm[gl] = tr, ti
		}
		pl.soaTw = st
	})
	return pl.soaTw
}

// SoAFrame is the pooled pair of split planes one transform works in.
type SoAFrame struct{ Re, Im []float64 }

var soaFramePool sync.Pool

// GetSoAFrame returns a frame with n-element planes from the pool.
func GetSoAFrame(n int) *SoAFrame {
	f, _ := soaFramePool.Get().(*SoAFrame)
	if f == nil {
		f = &SoAFrame{}
	}
	if cap(f.Re) < n {
		f.Re = make([]float64, n)
		f.Im = make([]float64, n)
	}
	f.Re, f.Im = f.Re[:n], f.Im[:n]
	return f
}

// Release returns the frame to the pool. The frame must not be used
// after Release.
func (f *SoAFrame) Release() { soaFramePool.Put(f) }

// soaTileBits caps q, the bit width of one side of a pack tile: a
// 2^q × 2^q tile of complex128 is 16 KiB at q = 5 — resident in any
// L1d with room for the streams flowing through it — and a 2^q run is
// 512 bytes of input or 256 bytes of each plane, whole cache lines.
const soaTileBits = 5

// soaTileQ returns q for a 2^logN-point pack. The index is split
// high q bits | middle | low q bits, and one tile holds the 2^q × 2^q
// points that share a middle field; small transforms shrink the tile
// until the two outer fields fit.
func soaTileQ(logN int) int { return min(soaTileBits, logN/2) }

// SoAPackTiles returns the number of independent tiles PackTiles splits
// a 2^logN-point pack into — the unit callers shard the pack by.
func SoAPackTiles(logN int) int { return 1 << (logN - 2*soaTileQ(logN)) }

// PackTiles runs tiles [lo,hi) of the SoA transform's input pass: the
// deinterleave into split planes fused with the bit-reversal
// permutation (element i lands at BitReverse(i)), cache-blocked.
// Tile b copies, for every high field a, the contiguous 2^q-point run
// data[a·2^(logN−q) + b·2^q ...] into row rev(a) of an L1-resident tile
// on the stack, then for every low field c gathers tile column c into
// one contiguous 2^q run of each plane at rev(c)·2^(logN−q) + rev(b)·2^q.
// The strided half of the transpose stays inside the tile, so every
// access to the big arrays is a run of whole cache lines; the
// element-at-a-time scatter this replaces stored N/2 floats apart — a
// new line, and the same few cache sets, on every store. With conj set
// the imaginary plane is negated on the way in, folding the inverse
// transform's leading conjugation into the pack. Distinct tiles write
// disjoint plane elements, so callers may shard
// [0, SoAPackTiles(logN)) across workers.
func (f *SoAFrame) PackTiles(data []complex128, lo, hi, logN int, conj bool) {
	f.packTiles(data, lo, hi, logN, soaTileQ(logN), conj)
}

// packTiles is PackTiles at an explicit tile width q ≤ soaTileBits;
// q = 0 degenerates to one element per tile, so tile b is element b.
func (f *SoAFrame) packTiles(data []complex128, lo, hi, logN, q int, conj bool) {
	var tile [1 << (2 * soaTileBits)]complex128
	var rev [1 << soaTileBits]int
	side := 1 << q
	for i := 0; i < side; i++ {
		rev[i] = int(BitReverse(int64(i), q))
	}
	top := uint(logN - q) // shift of the high field
	mid := logN - 2*q
	for b := lo; b < hi; b++ {
		for a := 0; a < side; a++ {
			copy(tile[rev[a]<<q:][:side], data[a<<top|b<<q:])
		}
		rb := int(BitReverse(int64(b), mid)) << q
		for c := 0; c < side; c++ {
			dst := rev[c]<<top | rb
			re, im := f.Re[dst:][:side], f.Im[dst:][:side]
			if conj {
				for a := range re {
					v := tile[a<<q|c]
					re[a], im[a] = real(v), -imag(v)
				}
			} else {
				for a := range re {
					v := tile[a<<q|c]
					re[a], im[a] = real(v), imag(v)
				}
			}
		}
	}
}

// FrameOf views the memory of v as a frame of len(v)-point planes, Re
// in its first half and Im in its second: where the out-of-core tiles
// keep a vector between the move that packs it and the move that reads
// its transform, so neither a pooled frame nor an unpack stands between
// them. The frame aliases v and must not be Released.
func FrameOf(v []complex128) SoAFrame {
	f := ComplexFloat64s(v)
	return SoAFrame{Re: f[:len(v)], Im: f[len(v):]}
}

// MoveRuns is the number of vectors one chunk of PackColumns or
// UnpackColumns stages — 64, the side of the transposition's tile, for
// its reasons: a run of one plane is 512 bytes of whole cache lines, and
// at 64 vectors of 64 elements the staged rows are one 64 KiB tile.
const (
	soaColumnBits = 6
	MoveRuns      = 1 << soaColumnBits
)

// PackColumnTiles returns the number of independent tiles PackColumns
// splits the pack of 2^logN-point columns into; a tile stages
// min(2^logN, MoveRuns) source rows.
func PackColumnTiles(logN int) int { return 1 << (logN - min(logN, soaColumnBits)) }

// PackColumns is the transposing sibling of PackTiles: it packs cols
// columns of a row-major 2^logN × cols matrix, each into its own frame,
// in one tiled move — the four-step's column gather and the SoA pack's
// bit reversal, which the in-core transform runs as two sweeps. Column
// v's frame is FrameOf(tile[v·2^logN:][:2^logN]), and source element
// (j, v) lands in it at BitReverse(j).
//
// The source is read whole rows at a time through load, which fills run
// (len cols) with row j — the out-of-core path reads it from its input
// Store, one positioned read per vector. With q = min(logN, 6), tile b
// loads, for every high field a, row a·2^(logN−q)+b into row rev(a) of
// runs, a 2^q × cols staging buffer the caller owns (len ≥ MoveRuns·cols
// always suffices), then gathers every column of runs into one
// contiguous 2^q run of each plane of that column at rev(b)·2^q: as in
// PackTiles the strided half of the move stays inside the staged rows.
// The gather takes four columns — one cache line of every staged row —
// per sweep, so each line of runs is read once however far apart the
// rows are. With conj set the imaginary plane is negated on the way in.
// Distinct tiles write disjoint plane elements, so callers may run
// [0, PackColumnTiles(logN)) on several goroutines, each with its own
// runs.
func PackColumns(tile []complex128, logN, b, cols int, conj bool, runs []complex128, load func(run []complex128, j int)) {
	n := 1 << logN
	q := min(logN, soaColumnBits)
	side := 1 << q
	if len(tile) < cols*n {
		panic(LengthError("column tile", len(tile), cols*n))
	}
	if len(runs) < side*cols {
		panic(LengthError("column runs", len(runs), side*cols))
	}
	low := logN - q // width of the tile-index field b
	for a := 0; a < side; a++ {
		load(runs[int(BitReverse(int64(a), q))*cols:][:cols], a<<low|b)
	}
	sign := 1.0
	if conj {
		sign = -1
	}
	planes := ComplexFloat64s(tile)
	off := int(BitReverse(int64(b), low)) << q
	plane := func(c int) (re, im []float64) {
		col := planes[c*2*n:][:2*n]
		return col[off:][:side], col[n+off:][:side]
	}
	c := 0
	for ; c+4 <= cols; c += 4 {
		re0, im0 := plane(c)
		re1, im1 := plane(c + 1)
		re2, im2 := plane(c + 2)
		re3, im3 := plane(c + 3)
		for a := 0; a < side; a++ {
			line := runs[a*cols+c:][:4]
			re0[a], im0[a] = real(line[0]), sign*imag(line[0])
			re1[a], im1[a] = real(line[1]), sign*imag(line[1])
			re2[a], im2[a] = real(line[2]), sign*imag(line[2])
			re3[a], im3[a] = real(line[3]), sign*imag(line[3])
		}
	}
	for ; c < cols; c++ {
		re, im := plane(c)
		for a := range re {
			v := runs[a*cols+c]
			re[a], im[a] = real(v), sign*imag(v)
		}
	}
}

// UnpackColumns is the move back out: it reads bins [k0, k0+w) of rows
// transformed vectors, each held as the planes of its tile row
// (FrameOf(tile[r·n:][:n])), and writes them transposed into runs — bin
// k0+c of every row as one contiguous vector runs[c·rows:][:rows], the
// four-step's final transpose fused with the unpack. With conjScale set
// an element is conj(x)·s, the inverse transform's trailing sweep. The
// scatter fills four rows — one cache line of every vector of runs — per
// sweep of the planes.
func UnpackColumns(runs, tile []complex128, n, rows, k0, w int, conjScale bool, s float64) {
	if len(tile) < rows*n {
		panic(LengthError("row tile", len(tile), rows*n))
	}
	if len(runs) < w*rows {
		panic(LengthError("row runs", len(runs), w*rows))
	}
	sr, si := 1.0, 1.0
	if conjScale {
		sr, si = s, -s
	}
	planes := ComplexFloat64s(tile)
	plane := func(r int) (re, im []float64) {
		row := planes[r*2*n:][:2*n]
		return row[k0:][:w], row[n+k0:][:w]
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		re0, im0 := plane(r)
		re1, im1 := plane(r + 1)
		re2, im2 := plane(r + 2)
		re3, im3 := plane(r + 3)
		for c := 0; c < w; c++ {
			line := runs[c*rows+r:][:4]
			line[0] = complex(re0[c]*sr, im0[c]*si)
			line[1] = complex(re1[c]*sr, im1[c]*si)
			line[2] = complex(re2[c]*sr, im2[c]*si)
			line[3] = complex(re3[c]*sr, im3[c]*si)
		}
	}
	for ; r < rows; r++ {
		re, im := plane(r)
		for c := range re {
			runs[c*rows+r] = complex(re[c]*sr, im[c]*si)
		}
	}
}

// PackBitrev deinterleaves data[lo:hi] into the planes at bit-reversed
// positions. The whole array goes through the tiled pack; a partial
// element range runs the same code one element per tile.
func (f *SoAFrame) PackBitrev(data []complex128, lo, hi, logN int) {
	if lo == 0 && hi == 1<<logN {
		f.PackTiles(data, 0, SoAPackTiles(logN), logN, false)
		return
	}
	f.packTiles(data, lo, hi, logN, 0, false)
}

// Unpack reinterleaves planes[lo:hi] back into data[lo:hi].
func (f *SoAFrame) Unpack(data []complex128, lo, hi int) {
	for i := lo; i < hi; i++ {
		data[i] = complex(f.Re[i], f.Im[i])
	}
}

// UnpackConjScale is Unpack fused with the inverse transform's trailing
// conjugate-and-scale sweep: data[i] = conj(plane[i])·s.
func (f *SoAFrame) UnpackConjScale(data []complex128, lo, hi int, s float64) {
	for i := lo; i < hi; i++ {
		data[i] = complex(f.Re[i]*s, -f.Im[i]*s)
	}
}

// soaQuantum is the butterfly count of one parallel unit of a sweep
// pass. It is a power of two well above every lane width, so unit
// boundaries always fall on lane-aligned j offsets and the
// asm-or-generic choice cannot depend on the partition.
const soaQuantum = 4096

// SoAPasses returns the number of barrier-separated passes stage needs
// under kern: 1 for stage 0 (independent P-element task codelets),
// otherwise one per level sweep — v for KernelSoARadix2, ⌈v/2⌉ for
// KernelSoARadix4's fused pairs (+ single leftover level if v is odd).
func (pl *Plan) SoAPasses(stage int, kern Kernel) int {
	if stage == 0 {
		return 1
	}
	v := pl.Levels(stage)
	if kern.Concrete() == KernelSoARadix2 {
		return v
	}
	return v/2 + v&1
}

// soaPassShape resolves (stage ≥ 1, pass) to the sweep's base global
// level and whether it is a fused pair.
func (pl *Plan) soaPassShape(stage, pass int, kern Kernel) (gl int, pair bool) {
	l0 := pl.LogP * stage
	v := pl.Levels(stage)
	if kern.Concrete() == KernelSoARadix2 {
		return l0 + pass, false
	}
	if 2*pass+1 < v {
		return l0 + 2*pass, true
	}
	return l0 + v - 1, false // odd leftover level, swept radix-2
}

// soaPassButterflies returns the total butterfly count of a sweep
// pass: N/4 quad-butterflies for a fused pair, N/2 otherwise.
func (pl *Plan) soaPassButterflies(stage, pass int, kern Kernel) int64 {
	if _, pair := pl.soaPassShape(stage, pass, kern); pair {
		return int64(pl.N) / 4
	}
	return int64(pl.N) / 2
}

// SoAPassUnits returns the parallel unit count of (stage, pass):
// TasksPerStage for stage 0, else the pass's butterflies in
// soaQuantum-sized chunks. Units of one pass touch disjoint elements;
// any [lo,hi) partition of them yields bitwise-identical results.
func (pl *Plan) SoAPassUnits(stage, pass int, kern Kernel) int {
	if stage == 0 {
		return pl.TasksPerStage
	}
	nb := pl.soaPassButterflies(stage, pass, kern)
	return int((nb + soaQuantum - 1) / soaQuantum)
}

// SoARunPass executes units [lo,hi) of one pass on the frame's planes.
// Same-pass units touch disjoint elements; passes of a stage (and
// stages) must be barrier-separated, exactly like RunTask's contract.
func (pl *Plan) SoARunPass(stage, pass, lo, hi int, f *SoAFrame, st *SoATwiddles, kern Kernel) {
	if stage == 0 {
		pl.soaStage0(lo, hi, f, st, kern)
		return
	}
	gl, pair := pl.soaPassShape(stage, pass, kern)
	b0 := int64(lo) * soaQuantum
	b1 := int64(hi) * soaQuantum
	if nb := pl.soaPassButterflies(stage, pass, kern); b1 > nb {
		b1 = nb
	}
	if b0 >= b1 {
		return
	}
	if pair {
		pl.soaSweepPair(gl, b0, b1, f, st)
	} else {
		pl.soaSweep2(gl, b0, b1, f, st)
	}
}

// SoAStages runs every butterfly pass of the SoA schedule over its whole
// unit range on planes that already hold the input in bit-reversed
// order: the schedule's passes between its pack and its unpack, for
// callers whose own moves do both.
func (pl *Plan) SoAStages(f *SoAFrame, st *SoATwiddles, kern Kernel) {
	for stage := 0; stage < pl.NumStages; stage++ {
		for pass, np := 0, pl.SoAPasses(stage, kern); pass < np; pass++ {
			pl.SoARunPass(stage, pass, 0, pl.SoAPassUnits(stage, pass, kern), f, st, kern)
		}
	}
}

// soaStage0 runs stage-0 tasks [lo,hi): contiguous P-element groups at
// offset 0, factored through the level codelets with the shared S0
// twiddles (fused radix-4 base for levels 0–1, then fused pairs for
// KernelSoARadix4 or single levels for KernelSoARadix2).
func (pl *Plan) soaStage0(lo, hi int, f *SoAFrame, st *SoATwiddles, kern Kernel) {
	radix4 := kern.Concrete() != KernelSoARadix2
	v := pl.Levels(0)
	for t := lo; t < hi; t++ {
		a, b := t*pl.P, (t+1)*pl.P
		soaButterflies(f.Re[a:b], f.Im[a:b], st.S0Re, st.S0Im, v, radix4)
	}
}

// soaSweep2 applies global level gl to butterflies [b0,b1) of the
// planes: butterfly b pairs element blk·2^(gl+1)+j with its partner at
// distance 2^gl (blk = b/2^gl, j = b mod 2^gl), twiddle Lvl[gl][j].
// Runs of full blocks collapse into one primitive call.
func (pl *Plan) soaSweep2(gl int, b0, b1 int64, f *SoAFrame, st *SoATwiddles) {
	half := int64(1) << gl
	twr, twi := st.LvlRe[gl], st.LvlIm[gl]
	for b := b0; b < b1; {
		blk, j0 := b/half, b%half
		base := blk*2*half + j0
		if j0 == 0 && b1-b >= half {
			nblk := (b1 - b) / half
			soaBfly2(f.Re[base:], f.Im[base:], twr, twi, int(half), int(half), int(nblk))
			b += nblk * half
			continue
		}
		take := half - j0
		if take > b1-b {
			take = b1 - b
		}
		soaBfly2(f.Re[base:], f.Im[base:], twr[j0:], twi[j0:], int(half), int(take), 1)
		b += take
	}
}

// soaSweepPair applies the fused level pair (gl, gl+1) to quad
// butterflies [b0,b1): quad b spans x0..x3 at distance m = 2^gl from
// base blk·4m+j, with wa = Lvl[gl] and wb = Lvl[gl+1][:m].
func (pl *Plan) soaSweepPair(gl int, b0, b1 int64, f *SoAFrame, st *SoATwiddles) {
	m := int64(1) << gl
	war, wai := st.LvlRe[gl], st.LvlIm[gl]
	wbr, wbi := st.LvlRe[gl+1][:m], st.LvlIm[gl+1][:m]
	for b := b0; b < b1; {
		blk, j0 := b/m, b%m
		base := blk*4*m + j0
		if j0 == 0 && b1-b >= m {
			nblk := (b1 - b) / m
			soaBfly4(f.Re[base:], f.Im[base:], war, wai, wbr, wbi, int(m), int(m), int(nblk))
			b += nblk * m
			continue
		}
		take := m - j0
		if take > b1-b {
			take = b1 - b
		}
		soaBfly4(f.Re[base:], f.Im[base:], war[j0:], wai[j0:], wbr[j0:], wbi[j0:], int(m), int(take), 1)
		b += take
	}
}

// soaButterflies applies a stage-0 group's v levels in place to one
// contiguous group: the fused base pass for levels 0–1, then radix-4
// fused pairs (radix4) or single radix-2 levels. twr/twi hold the
// group's 2^v−1 twiddles in the TaskTwiddleIndices level-major layout.
func soaButterflies(re, im, twr, twi []float64, v int, radix4 bool) {
	if v == 0 {
		return
	}
	n := len(re)
	ll, off := 0, 0
	if v >= 2 {
		soaBase4(re, im, twr[0], twi[0], twr[1], twi[1])
		ll, off = 2, 3
	}
	if radix4 {
		for ; ll+1 < v; ll += 2 {
			m := 1 << ll
			soaBfly4(re, im,
				twr[off:off+m], twi[off:off+m],
				twr[off+m:off+2*m], twi[off+m:off+2*m], m, m, n/(4*m))
			off += 3 * m
		}
	}
	for ; ll < v; ll++ {
		half := 1 << ll
		soaBfly2(re, im, twr[off:off+half], twi[off:off+half], half, half, n/(2*half))
		off += half
	}
}

// soaBfly2 dispatches one radix-2 butterfly run: nblk blocks of stride
// 2·dist starting at re[0]/im[0], cnt butterflies per block (partner
// at +dist, twiddle wr/wi[j]). Asm engages only when dist and cnt are
// lane-aligned — conditions independent of partitioning, since unit
// boundaries are lane-aligned by construction.
func soaBfly2(re, im, wr, wi []float64, dist, cnt, nblk int) {
	if soaHasAsm && dist >= soaLanes && cnt >= soaLanes && cnt%soaLanes == 0 {
		bfly2Asm(&re[0], &im[0], &wr[0], &wi[0], dist, cnt, nblk)
		return
	}
	bfly2Gen(re, im, wr, wi, dist, cnt, nblk)
}

// soaBfly4 dispatches one fused radix-4 run: nblk blocks of stride
// 4·dist, cnt quad-butterflies per block (x0..x3 at distance dist).
func soaBfly4(re, im, war, wai, wbr, wbi []float64, dist, cnt, nblk int) {
	if soaHasAsm && dist >= soaLanes && cnt >= soaLanes && cnt%soaLanes == 0 {
		bfly4Asm(&re[0], &im[0], &war[0], &wai[0], &wbr[0], &wbi[0], dist, cnt, nblk)
		return
	}
	bfly4Gen(re, im, war, wai, wbr, wbi, dist, cnt, nblk)
}

// soaBase4 applies the fused levels-0-and-1 radix-4 pass with scalar
// twiddles w_a = (war,wai), w_b = (wbr,wbi) to every aligned quad.
func soaBase4(re, im []float64, war, wai, wbr, wbi float64) {
	n := len(re)
	if soaHasBase4 && n >= soaBase4MinN {
		q := n &^ (soaBase4MinN - 1)
		tw := [4]float64{war, wai, wbr, wbi}
		base4Asm(&re[0], &im[0], q, &tw[0])
		if q == n {
			return
		}
		re, im = re[q:], im[q:]
	}
	base4Gen(re, im, war, wai, wbr, wbi)
}

// bfly2Gen is the portable radix-2 run (also the noasm and small-size
// path; see soa_amd64.s / soa_arm64.s for the vector twins).
func bfly2Gen(re, im, wr, wi []float64, dist, cnt, nblk int) {
	for blk := 0; blk < nblk; blk++ {
		base := blk * 2 * dist
		for j := 0; j < cnt; j++ {
			a, b := base+j, base+j+dist
			tr := wr[j]*re[b] - wi[j]*im[b]
			ti := wr[j]*im[b] + wi[j]*re[b]
			re[b], im[b] = re[a]-tr, im[a]-ti
			re[a], im[a] = re[a]+tr, im[a]+ti
		}
	}
}

// bfly4Gen is the portable fused level-pair run; see the package
// comment for the dataflow and the −i fold.
func bfly4Gen(re, im, war, wai, wbr, wbi []float64, dist, cnt, nblk int) {
	for blk := 0; blk < nblk; blk++ {
		base := blk * 4 * dist
		for j := 0; j < cnt; j++ {
			i0, i1, i2, i3 := base+j, base+j+dist, base+j+2*dist, base+j+3*dist
			ar, ai := war[j], wai[j]
			br, bi := wbr[j], wbi[j]
			b1r := ar*re[i1] - ai*im[i1]
			b1i := ar*im[i1] + ai*re[i1]
			b3r := ar*re[i3] - ai*im[i3]
			b3i := ar*im[i3] + ai*re[i3]
			pr, pi := re[i0]+b1r, im[i0]+b1i
			qr, qi := re[i0]-b1r, im[i0]-b1i
			sr, si := re[i2]+b3r, im[i2]+b3i
			tr, ti := re[i2]-b3r, im[i2]-b3i
			wsr := br*sr - bi*si
			wsi := br*si + bi*sr
			wtr := br*tr - bi*ti
			wti := br*ti + bi*tr
			re[i0], im[i0] = pr+wsr, pi+wsi
			re[i2], im[i2] = pr-wsr, pi-wsi
			re[i1], im[i1] = qr+wti, qi-wtr
			re[i3], im[i3] = qr-wti, qi+wtr
		}
	}
}

// base4Gen is bfly4Gen specialized to dist = 1 with broadcast twiddles
// — the first two levels of every stage-0 group.
func base4Gen(re, im []float64, war, wai, wbr, wbi float64) {
	n := len(re)
	for k := 0; k < n; k += 4 {
		b1r := war*re[k+1] - wai*im[k+1]
		b1i := war*im[k+1] + wai*re[k+1]
		b3r := war*re[k+3] - wai*im[k+3]
		b3i := war*im[k+3] + wai*re[k+3]
		pr, pi := re[k]+b1r, im[k]+b1i
		qr, qi := re[k]-b1r, im[k]-b1i
		sr, si := re[k+2]+b3r, im[k+2]+b3i
		tr, ti := re[k+2]-b3r, im[k+2]-b3i
		wsr := wbr*sr - wbi*si
		wsi := wbr*si + wbi*sr
		wtr := wbr*tr - wbi*ti
		wti := wbr*ti + wbi*tr
		re[k], im[k] = pr+wsr, pi+wsi
		re[k+2], im[k+2] = pr-wsr, pi-wsi
		re[k+1], im[k+1] = qr+wti, qi-wtr
		re[k+3], im[k+3] = qr-wti, qi+wtr
	}
}

// soaPasses builds the split-plane pass list over the array buf
// selects: tiled pack+bitrev, every stage's passes on the planes,
// unpack. The inverse's conjugation identity rides on passes that
// already touch every element — the leading conjugation on the pack,
// the trailing conjugate-and-scale on the unpack — so it costs exactly
// the forward's passes and is bit-for-bit the unfused conj → forward →
// conj·1/N composition.
func (pl *Plan) soaPasses(w []complex128, kern Kernel, inverse bool, buf operand) []Pass {
	tw := pl.SoATwiddles(w)
	ps := []Pass{{PassSoAPack, SoAPackTiles(pl.LogN), func(st *State, lo, hi int) {
		st.Frame.PackTiles(buf(st), lo, hi, pl.LogN, inverse)
	}}}
	label := StageLabel(kern)
	for stage := 0; stage < pl.NumStages; stage++ {
		for pass, np := 0, pl.SoAPasses(stage, kern); pass < np; pass++ {
			ps = append(ps, Pass{label, pl.SoAPassUnits(stage, pass, kern), func(st *State, lo, hi int) {
				pl.SoARunPass(stage, pass, lo, hi, st.Frame, tw, kern)
			}})
		}
	}
	unpack := func(st *State, lo, hi int) { st.Frame.Unpack(buf(st), lo, hi) }
	if inverse {
		inv := 1 / float64(pl.N)
		unpack = func(st *State, lo, hi int) { st.Frame.UnpackConjScale(buf(st), lo, hi, inv) }
	}
	return append(ps, Pass{PassSoAUnpack, pl.N, unpack})
}

// TransformSoA runs the forward SoA schedule serially. Zero
// steady-state allocations (the frame comes from a sync.Pool; the split
// twiddle tables are built once per plan).
func (pl *Plan) TransformSoA(data, w []complex128, kern Kernel) {
	pl.Schedule(w, kern, false).Run(data)
}
