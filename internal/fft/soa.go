package fft

import (
	"math"
	"sync"
)

// The SoA kernel family (KernelSoARadix2 / KernelSoARadix4) runs the
// staged decomposition on split real/imag float64 planes instead of
// interleaved complex128. The layout change is what unlocks SIMD: a
// 4-wide vector load of re[] pulls four butterflies' worth of one
// operand, where the interleaved layout would pull two complex values
// and need a shuffle per load. Input is deinterleaved once per
// transform into a pooled SoAFrame (fused with the bit-reversal
// permutation and stage 0, so neither costs a pass of its own), and the
// last butterflies write the interleaved result straight back into the
// caller's array; every stage in between works purely on the planes.
//
// Execution differs from the scalar kernels in one structural way.
// Stage 0 keeps the paper's task shape: each task is a contiguous
// P-element group at offset r = 0, so it runs in place through the
// level codelets with the stage's one shared twiddle set — inside the
// pack, on each run of groups as the pack writes it. For stages
// ≥ 1 the butterfly distance is already ≥ P, so instead of gathering
// strided groups (which touches twice the cache lines it would on
// interleaved data) the planes are swept level by level with
// unit-stride loads — the butterfly partner is a contiguous run at
// distance 2^gl — against per-level twiddle tables built once per
// plan (SoATwiddles). The sweeps (fused level pairs for
// KernelSoARadix4) do not each stream the whole array: consecutive ones
// are grouped into blocked passes (soaGroups) whose units are
// 2^14-point sets closed under the group's levels, run through every
// sweep of the group while they sit in L2. At 2^20 points that is the
// pack and two passes over the planes, the second storing into the
// caller's array. Units of a pass touch disjoint elements, so
// internal/host can shard each pass across workers.
//
// Both members dispatch the inner loops to assembly codelets (AVX2 on
// amd64, NEON on arm64) when the CPU supports them, with pure-Go
// fallbacks compiled in under the noasm build tag or chosen at runtime
// when the features are missing. The asm-or-generic decision depends
// only on a codelet call's butterfly distance and run length, which
// the blocked passes fix per level — never on how a pass was
// partitioned — so a fixed kernel is bitwise deterministic under any
// schedule: serial, parallel and batched execution agree bit-for-bit,
// exactly the engine contract the scalar kernels provide, and the
// blocked passes give the bits one whole-array pass per sweep gave.
// Asm and generic builds of the *same* kernel agree to rounding (FMA
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
// features, or an architecture without codelets). The mixed-radix
// stages run their vector codelets on the same detection: with
// "avx2+fma" (they use AVX only, and no FMA, to keep the Go codelets'
// bits); on "neon" and "generic" they run the Go codelets.
func SoAAccel() string { return soaAccel }

// SoATwiddles holds the split-plane twiddle tables for one Plan:
// stage 0's level-major gathered set (all stage-0 groups share offset
// r = 0, so one P−1-entry set serves every task), and a full
// subsampled table per sweep level gl ∈ [LogP, LogN) — Lvl[gl][j] =
// W_N^(j·2^(LogN−gl−1)) — so level sweeps stream their twiddles
// instead of gathering them, and the plan's blocked passes for each SoA
// kernel. Built lazily by Plan.SoATwiddles and cached on the plan; the
// level tables total ≈ 2N float64s, the price of contiguity on the hot
// sweeps.
type SoATwiddles struct {
	S0Re, S0Im   []float64   // stage-0 gathered twiddles, level-major, len P−1
	LvlRe, LvlIm [][]float64 // per-global-level sweep tables; nil below LogP

	blocked [2][]soaGroup // the blocked passes of KernelSoARadix2, KernelSoARadix4
}

// groups returns the plan's blocked passes under kern.
func (st *SoATwiddles) groups(kern Kernel) []soaGroup {
	if kern.Concrete() == KernelSoARadix2 {
		return st.blocked[0]
	}
	return st.blocked[1]
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
		st.blocked = [2][]soaGroup{pl.soaGroups(KernelSoARadix2), pl.soaGroups(KernelSoARadix4)}
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

// The pack's tiles. A tile splits the logN-bit input index i into three
// fields, and the plane index rev(i) it lands at into their reverses:
//
//	i      = a (high r bits) | b (middle) | c (low s bits)
//	rev(i) = rev(c)          | rev(b)     | rev(a)
//
// Tile b is the 2^r × 2^s points that share the middle field. Its rows
// (fixed a) are contiguous 2^s-point runs of the input; its columns
// (fixed c) land as contiguous 2^r-point runs of each plane. The pack
// copies every row into a staging buffer and gathers every column out
// of it, so the strided half of the permutation never leaves the
// buffer and every access to the big arrays is a run of whole cache
// lines. Long runs on both sides are what make the move cheap on
// arrays that come from L3 or memory: a 1 KiB row and a 2 KiB column
// run each pay one latency and one page walk for sixteen and
// thirty-two lines; at a quarter of that length (a 32 × 32 tile) the
// pack takes twice as long at 2^20 points
// (docs/history/20-pack-in-long-run-tiles.md).
//
// A column run is at least P points, so it holds whole stage-0 groups:
// SoAPack runs stage 0 on each column of a tile once the tile is
// gathered, while its 256 KiB of planes are in L2, and the transform
// needs no stage-0 pass of its own.
const (
	packRunBits  = 8                         // a column: 256 points, 2 KiB of each plane
	packRowBits  = 6                         // a row: 64 points, 1 KiB of input
	packTileBits = packRunBits + packRowBits // the staging buffer: 256 KiB, L2-resident
)

// packShape returns the tile's column and row widths (r, s) for a
// 2^logN-point pack whose columns must hold 2^logP-point groups. An
// array of at most 2^packTileBits points is one near-square tile, and
// SoAPack runs stage 0 over its planes after the gather. Beyond that,
// columns take 2^packRunBits points, or P when P is longer, and rows
// 2^packRowBits, narrowed so the buffer stays at 2^packTileBits points
// until P alone exceeds it.
func packShape(logN, logP int) (r, s int) {
	if logN <= packTileBits {
		return logN - logN/2, logN / 2
	}
	r = min(logN, max(packRunBits, logP))
	return r, min(packRowBits, logN-r, max(0, packTileBits-r))
}

// packTilePool holds the staging buffers: 256 KiB is too much for a
// goroutine stack.
var packTilePool sync.Pool

// packTiles runs tiles [lo, hi) of a pack at shape (r, s): element i of
// data lands at BitReverse(i) of the planes, with the imaginary part
// negated if conj is set (the inverse transform's leading conjugation).
// Each column run of a tile is handed to done, when it is not nil, once
// the whole tile is gathered. r = s = 0 degenerates to one element per
// tile, so tile b is element b. Distinct tiles write disjoint plane
// elements.
func (f *SoAFrame) packTiles(data []complex128, lo, hi, logN, r, s int, conj bool, done func(re, im []float64)) {
	rows, cols := 1<<r, 1<<s
	bp, _ := packTilePool.Get().(*[]complex128)
	if bp == nil {
		bp = new([]complex128)
	}
	if cap(*bp) < rows*cols {
		*bp = make([]complex128, rows*cols)
	}
	runs := (*bp)[:rows*cols]
	top := uint(logN - r) // shift of the high field
	mid := logN - r - s
	for b := lo; b < hi; b++ {
		for a := 0; a < rows; a++ {
			copy(runs[int(BitReverse(int64(a), r))*cols:][:cols], data[a<<top|b<<s:])
		}
		rb := int(BitReverse(int64(b), mid)) << r
		gatherColumns(runs, rows, cols, conj, func(c int) (re, im []float64) {
			d := int(BitReverse(int64(c), s))<<(logN-s) | rb
			return f.Re[d:][:rows], f.Im[d:][:rows]
		}, done)
	}
	packTilePool.Put(bp)
}

// gatherColumns is the strided half of the tiled pack: it writes
// column c of runs, rows staged rows of cols points, into the planes
// plane(c) returns, the imaginary part negated if conj is set, then
// hands every column's planes to done (if not nil). It takes four
// columns — one cache line of every staged row — per sweep, so each
// line of runs is read once however far apart the rows are; on amd64 a
// sweep runs four rows at a time as two 4×4 transposes in vector
// registers (gather4Asm).
func gatherColumns(runs []complex128, rows, cols int, conj bool, plane func(c int) (re, im []float64), done func(re, im []float64)) {
	sign := 1.0
	if conj {
		sign = -1
	}
	c := 0
	for ; c+4 <= cols; c += 4 {
		re0, im0 := plane(c)
		re1, im1 := plane(c + 1)
		re2, im2 := plane(c + 2)
		re3, im3 := plane(c + 3)
		re0, im0, re1, im1 = re0[:rows], im0[:rows], re1[:rows], im1[:rows]
		re2, im2, re3, im3 = re2[:rows], im2[:rows], re3[:rows], im3[:rows]
		a := 0
		if soaHasGather && rows >= 4 {
			out := [8]*float64{&re0[0], &im0[0], &re1[0], &im1[0], &re2[0], &im2[0], &re3[0], &im3[0]}
			a = rows &^ 3
			gather4Asm(&runs[c], cols, a, &out, sign)
		}
		for ; a < rows; a++ {
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
	if done != nil {
		for c := 0; c < cols; c++ {
			re, im := plane(c)
			done(re, im)
		}
	}
}

// SoAPackTiles returns the number of independent tiles SoAPack splits
// the plan's pack into — the unit callers shard the pack by.
func (pl *Plan) SoAPackTiles() int {
	r, s := packShape(pl.LogN, pl.LogP)
	return 1 << (pl.LogN - r - s)
}

// SoAPack runs tiles [lo, hi) of the SoA transform's first pass: the
// deinterleave of data into the frame's planes, the bit-reversal
// permutation and stage 0, in one move. Each column run of a tile is a
// whole number of stage-0 groups, transformed in place once the tile is
// gathered, so stage 0 costs its arithmetic and no sweep of its own.
// With conj set the imaginary part is negated on the way in. Distinct
// tiles write disjoint plane elements, so callers may shard
// [0, SoAPackTiles()) across workers.
func (pl *Plan) SoAPack(f *SoAFrame, data []complex128, lo, hi int, st *SoATwiddles, kern Kernel, conj bool) {
	r, s := packShape(pl.LogN, pl.LogP)
	if r+s < pl.LogN {
		f.packTiles(data, lo, hi, pl.LogN, r, s, conj, pl.stage0(st, kern).run)
		return
	}
	// One tile is the whole array: its columns are 2^r-point runs that
	// may be shorter than P, but together they fill the planes, so
	// stage 0 runs over the planes once they are.
	if lo < hi {
		f.packTiles(data, 0, 1, pl.LogN, r, s, conj, nil)
		pl.stage0(st, kern).run(f.Re, f.Im)
	}
}

// stage0 returns stage 0 of the plan as a function of a run of whole
// stage-0 groups: contiguous P-point groups after the bit reversal,
// factored through the level codelets with the shared S0 twiddles (the
// fused radix-4 base for levels 0–1, then fused pairs for
// KernelSoARadix4 or single levels for KernelSoARadix2).
func (pl *Plan) stage0(st *SoATwiddles, kern Kernel) stage0Groups {
	g := stage0Groups{st.S0Re, st.S0Im, pl.Levels(0), pl.P, kern.Concrete() != KernelSoARadix2}
	if g.span >= soaBase4MinN {
		g.span = max(g.span, 1<<packRunBits)
	}
	return g
}

// stage0Groups is stage 0 bound to one plan. Groups of at least
// soaBase4MinN points share one codelet call per level pair, up to a
// pack column's worth, which is bit for bit one call per group: the
// asm-or-generic choice depends on the butterfly distance and the group
// size, never on how many groups a call spans.
type stage0Groups struct {
	twr, twi []float64
	v, span  int
	radix4   bool
}

func (g stage0Groups) run(re, im []float64) {
	for a := 0; a < len(re); a += g.span {
		b := min(a+g.span, len(re))
		soaButterflies(re[a:b], im[a:b], g.twr, g.twi, g.v, g.radix4)
	}
}

// PackBitrev deinterleaves data[lo:hi] into the planes at bit-reversed
// positions: the pack's permutation alone, with no stage 0. The whole
// array goes through the tiled pack; a partial element range runs the
// same code one element per tile.
func (f *SoAFrame) PackBitrev(data []complex128, lo, hi, logN int) {
	if lo == 0 && hi == 1<<logN {
		r, s := packShape(logN, 0)
		f.packTiles(data, 0, 1<<(logN-r-s), logN, r, s, false, nil)
		return
	}
	f.packTiles(data, lo, hi, logN, 0, 0, false, nil)
}

// Unpack reinterleaves planes[lo:hi] back into data[lo:hi].
// The ranges are resliced to one length up front, so the loop indexes
// them without bounds checks or reloading the frame's fields after every
// store.
func (f *SoAFrame) Unpack(data []complex128, lo, hi int) {
	re := f.Re[lo:hi]
	d, im := data[lo:hi][:len(re)], f.Im[lo:hi][:len(re)]
	for i, r := range re {
		d[i] = complex(r, im[i])
	}
}

// UnpackConjScale is Unpack fused with the inverse transform's trailing
// conjugate-and-scale sweep: data[i] = conj(plane[i])·s.
func (f *SoAFrame) UnpackConjScale(data []complex128, lo, hi int, s float64) {
	re := f.Re[lo:hi]
	d, im := data[lo:hi][:len(re)], f.Im[lo:hi][:len(re)]
	for i, r := range re {
		d[i] = complex(r*s, -im[i]*s)
	}
}

// SoAPasses returns the number of level sweeps stage needs under kern:
// none for stage 0, whose groups are transformed inside the pack's tiles
// (SoAPack), otherwise v for KernelSoARadix2 and ⌈v/2⌉ for
// KernelSoARadix4's fused pairs (+ a single leftover level if v is
// odd). The schedule does not give a sweep a pass of its own: it runs
// consecutive sweeps inside blocked passes (soaGroups).
func (pl *Plan) SoAPasses(stage int, kern Kernel) int {
	if stage == 0 {
		return 0
	}
	v := pl.Levels(stage)
	if kern.Concrete() == KernelSoARadix2 {
		return v
	}
	return v/2 + v&1
}

// soaLevel is one level sweep: global level gl, fused with gl+1 into a
// radix-4 pass when pair is set.
type soaLevel struct {
	gl   int
	pair bool
}

// width returns the number of levels the sweep applies.
func (l soaLevel) width() int {
	if l.pair {
		return 2
	}
	return 1
}

// soaLevels lists the sweeps of stages ≥ 1 in order: each stage's levels
// in fused pairs from its first level for KernelSoARadix4, an odd
// stage's last level alone; one level at a time for KernelSoARadix2.
func (pl *Plan) soaLevels(kern Kernel) []soaLevel {
	var ls []soaLevel
	for stage := 1; stage < pl.NumStages; stage++ {
		end := pl.LogP*stage + pl.Levels(stage)
		for gl := pl.LogP * stage; gl < end; {
			l := soaLevel{gl, kern.Concrete() != KernelSoARadix2 && gl+1 < end}
			ls = append(ls, l)
			gl += l.width()
		}
	}
	return ls
}

// soaGroupLevels is the most levels a higher group (see soaGroups) is
// cut to, so its runs stay near 2^(packTileBits−6) = 256 points — 2 KiB,
// 32 cache lines, of a plane — or longer. Eight levels of 64-point runs
// made 2^22 slower than one pass per level pair
// (docs/history/22-blocked-level-passes.md).
const soaGroupLevels = 6

// soaGroup is one blocked pass: consecutive sweeps, run one unit at a
// time, each unit through all of them before the next starts. A unit is
// 2^u points of the planes (u = min(LogN, packTileBits): 256 KiB, L2
// resident) closed under the group's levels — a butterfly at level gl
// pairs elements that differ in bit gl only — laid out as 2^(top−stride)
// runs of 2^run contiguous points, 2^stride apart. The first group holds
// every sweep below level u and its units are contiguous blocks (run =
// stride = top = u); a higher group spanning levels [a, b) takes runs of
// 2^(u−(b−a)) points at stride 2^a (top = b).
type soaGroup struct {
	levels           []soaLevel
	run, stride, top int
}

// soaGroups cuts pl's sweeps under kern into blocked passes: the first
// group every sweep below level u, the rest into as few groups as
// soaGroupLevels allows, a sweep going to the group its first level's
// share of the remaining levels picks — so the groups are balanced and
// none spans more than soaGroupLevels+1 levels (a pair that starts
// inside a share may end past it): higher groups' runs are at least
// 2^(u−7) points.
func (pl *Plan) soaGroups(kern Kernel) []soaGroup {
	ls := pl.soaLevels(kern)
	u := pl.soaUnitBits()
	var gs []soaGroup
	i := 0
	for i < len(ls) && ls[i].gl+ls[i].width() <= u {
		i++
	}
	if i > 0 {
		gs = append(gs, soaGroup{ls[:i], u, u, u})
	}
	if i == len(ls) {
		return gs
	}
	a0 := ls[i].gl
	span := pl.LogN - a0
	n := (span + soaGroupLevels - 1) / soaGroupLevels
	part := func(l soaLevel) int { return (l.gl - a0) * n / span }
	for i < len(ls) {
		e := i + 1
		for e < len(ls) && part(ls[e]) == part(ls[i]) {
			e++
		}
		a, b := ls[i].gl, ls[e-1].gl+ls[e-1].width()
		gs = append(gs, soaGroup{ls[i:e], u - (b - a), a, b})
		i = e
	}
	return gs
}

// soaUnitBits returns log2 of a blocked pass's unit: a 2^packTileBits-
// point set, or the whole array when it is smaller.
func (pl *Plan) soaUnitBits() int { return min(pl.LogN, packTileBits) }

// soaUnits returns the number of units of every blocked pass.
func (pl *Plan) soaUnits() int { return pl.N >> pl.soaUnitBits() }

// soaStore is where the schedule's last blocked pass leaves the
// transform: interleaved into out, each element conj(x)·s when conj is
// set (the inverse's trailing conjugate-and-scale). A zero soaStore
// leaves it in the planes.
type soaStore struct {
	out  []complex128
	conj bool
	s    float64
}

// unpack reinterleaves planes [lo, hi) into out.
func (d soaStore) unpack(f *SoAFrame, lo, hi int) {
	if d.conj {
		f.UnpackConjScale(d.out, lo, hi, d.s)
	} else {
		f.Unpack(d.out, lo, hi)
	}
}

// runUnits executes units [lo, hi) of g on the frame's planes. Units touch
// pairwise-disjoint elements, and every butterfly of a unit reads the
// values the sweep before it left, so any partition of the unit range
// gives the bits one whole-array pass per sweep gives: the
// asm-or-generic choice of a codelet call depends on its butterfly
// distance and on cnt — the distance itself in a contiguous block, the
// run width (≥ 2^7) in a higher group — never on the partition. With
// dst.out set, the last sweep puts its results into dst.out instead of
// the planes: a fused pair the vector codelets run stores them there
// directly (bfly4StoreAsm); otherwise the unit runs the sweep in place
// and unpacks its runs while they are still in cache.
func (g *soaGroup) runUnits(lo, hi int, f *SoAFrame, st *SoATwiddles, dst soaStore) {
	w := 1 << g.run
	lowField := g.stride - g.run // unit index bits that pick a run offset below 2^stride
	for u := lo; u < hi; u++ {
		o := (u & (1<<lowField - 1)) << g.run
		h := (u >> lowField) << g.top
		for i, l := range g.levels {
			m := 1 << l.gl
			nblk := 1 << (g.top - l.gl - l.width())
			// A contiguous block takes each level in one call, cnt = m;
			// a higher group's runs one call per run offset below m.
			cnt, step := m, m
			if m >= w {
				cnt, step = w, 1<<g.stride
			}
			last := dst.out != nil && i == len(g.levels)-1
			direct := last && l.pair && soaHasStore && soaVector(m, cnt)
			for k := 0; k < m; k += step {
				j0 := o + k
				if direct {
					l.store(f, st, h+j0, j0, cnt, nblk, dst)
				} else {
					l.apply(f, st, h+j0, j0, cnt, nblk)
				}
			}
			if last && !direct {
				for r := 0; r < 1<<(g.top-g.stride); r++ {
					a := h + o + r<<g.stride
					dst.unpack(f, a, a+w)
				}
			}
		}
	}
}

// apply runs sweep l in place on nblk blocks of cnt butterflies (quad
// butterflies for a pair) from plane offset base, twiddles from j0.
func (l soaLevel) apply(f *SoAFrame, st *SoATwiddles, base, j0, cnt, nblk int) {
	m := 1 << l.gl
	war, wai := st.LvlRe[l.gl][j0:], st.LvlIm[l.gl][j0:]
	if !l.pair {
		soaBfly2(f.Re[base:], f.Im[base:], war, wai, m, cnt, nblk)
		return
	}
	wbr, wbi := st.LvlRe[l.gl+1][j0:m], st.LvlIm[l.gl+1][j0:m]
	soaBfly4(f.Re[base:], f.Im[base:], war, wai, wbr, wbi, m, cnt, nblk)
}

// store is apply for a fused pair the vector codelets run, with the
// results written interleaved to dst.out[base:] instead of the planes.
func (l soaLevel) store(f *SoAFrame, st *SoATwiddles, base, j0, cnt, nblk int, dst soaStore) {
	s, neg := 1.0, 0.0
	if dst.conj {
		s, neg = dst.s, math.Copysign(0, -1)
	}
	m := 1 << l.gl
	_ = dst.out[base+(nblk-1)*4*m+3*m+cnt-1] // the codelet's last store
	bfly4StoreAsm(&f.Re[base], &f.Im[base], &st.LvlRe[l.gl][j0], &st.LvlIm[l.gl][j0],
		&st.LvlRe[l.gl+1][j0], &st.LvlIm[l.gl+1][j0], &dst.out[base], m, cnt, nblk, s, neg)
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

// soaVector reports whether a level codelet run at butterfly distance
// dist with cnt butterflies per block takes the vector codelets: only
// when both are lane-aligned.
func soaVector(dist, cnt int) bool {
	return soaHasAsm && dist >= soaLanes && cnt >= soaLanes && cnt%soaLanes == 0
}

// soaBfly2 dispatches one radix-2 butterfly run: nblk blocks of stride
// 2·dist starting at re[0]/im[0], cnt butterflies per block (partner
// at +dist, twiddle wr/wi[j]). Asm engages only when dist and cnt are
// lane-aligned — conditions independent of partitioning, since unit
// boundaries are lane-aligned by construction.
func soaBfly2(re, im, wr, wi []float64, dist, cnt, nblk int) {
	if soaVector(dist, cnt) {
		bfly2Asm(&re[0], &im[0], &wr[0], &wi[0], dist, cnt, nblk)
		return
	}
	bfly2Gen(re, im, wr, wi, dist, cnt, nblk)
}

// soaBfly4 dispatches one fused radix-4 run: nblk blocks of stride
// 4·dist, cnt quad-butterflies per block (x0..x3 at distance dist).
func soaBfly4(re, im, war, wai, wbr, wbi []float64, dist, cnt, nblk int) {
	if soaVector(dist, cnt) {
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

// soaPasses builds the split-plane pass list over the caller's array:
// the tiled pack (bit reversal and stage 0), then one blocked pass per
// group of level sweeps, the last of which stores the transform into
// the array. The inverse's conjugation identity rides on passes
// that already touch every element — the leading conjugation on the
// pack, the trailing conjugate-and-scale on the store — so it costs
// exactly the forward's passes and is bit-for-bit the unfused
// conj → forward → conj·1/N composition. With no level above stage 0
// (N ≤ P) the pack is one tile and the whole transform: it unpacks too.
func (pl *Plan) soaPasses(w []complex128, kern Kernel, inverse bool) []Pass {
	tw := pl.SoATwiddles(w)
	store := func(st *State) soaStore { return soaStore{st.Data, inverse, 1 / float64(pl.N)} }
	gs := tw.groups(kern)
	if len(gs) == 0 {
		return []Pass{{PassSoAPack, 1, func(st *State, lo, hi int) {
			if lo < hi {
				pl.SoAPack(st.Frame, st.Data, 0, 1, tw, kern, inverse)
				store(st).unpack(st.Frame, 0, pl.N)
			}
		}}}
	}
	ps := []Pass{{PassSoAPack, pl.SoAPackTiles(), func(st *State, lo, hi int) {
		pl.SoAPack(st.Frame, st.Data, lo, hi, tw, kern, inverse)
	}}}
	label := StageLabel(kern)
	for i := range gs {
		g, last := &gs[i], i == len(gs)-1
		ps = append(ps, Pass{label, pl.soaUnits(), func(st *State, lo, hi int) {
			var dst soaStore
			if last {
				dst = store(st)
			}
			g.runUnits(lo, hi, st.Frame, tw, dst)
		}})
	}
	return ps
}

// TransformSoA runs the forward SoA schedule serially. Zero
// steady-state allocations (the frame comes from a sync.Pool; the split
// twiddle tables are built once per plan). A wrong-length array panics
// with an error wrapping ErrLengthMismatch.
func (pl *Plan) TransformSoA(data, w []complex128, kern Kernel) {
	must(pl.Schedule(w, kern, false).Run(data))
}
