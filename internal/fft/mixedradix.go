// Mixed-radix planning: a self-sorting Stockham decimation-in-frequency
// decomposition over radix-{2, 3, 4, 5, 7} butterfly codelets, covering
// every N whose prime factors lie in {2, 3, 5, 7}. Lengths with larger
// prime factors fall back to the Bluestein chirp-z plan (bluestein.go).
//
// Each stage halves nothing in particular — it splits the current
// sub-transform length n into r sub-transforms of length m = n/r, with
// s interleaved copies (s = the product of the radices of the earlier
// stages). One butterfly unit (p, q), p ∈ [0, m), q ∈ [0, s), gathers
//
//	u[c] = src[q + s·(p + m·c)]   c ∈ [0, r)
//
// applies the r-point DFT codelet, multiplies output d by the twiddle
// ω_n^{p·d}, and scatters
//
//	dst[q + s·(r·p + d)] = DFT_r(u)[d] · ω_n^{p·d}
//
// Ping-ponging src/dst across stages leaves the spectrum in natural
// order with no digit-reversal pass — the Stockham autosort property,
// generalized from the radix-2 case. A pass (mixedPass) runs one stage,
// or two consecutive stages of one radix after the first, the last
// included, where a vector pair codelet covers the radix: each fused
// unit passes the r² values between its two stages on without a sweep
// of the array, so the pair sweeps it once.
// The last pass (m = 1), a stage or a pair, may run in place, so a plan
// ends in the caller's array at any pass count, and multiply-only
// sweeps ride on the first and last stages' edges (stageEdge). Units
// within a pass touch pairwise-disjoint elements and are
// arithmetically self-contained, so a pass shards across workers with
// bitwise-identical output to the serial pass (internal/host leans on
// this as it does for the staged power-of-two plan). On amd64 the
// radix-2…5 butterflies, and the 3×3, 4×4 and 5×5 fused pairs, run as
// AVX codelets (mixed_amd64.s) that give the Go codelets' bits.
package fft

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Butterfly constants: cos/sin of the radix-3 and radix-5 roots of
// unity. A codelet multiplies by one as two real products (rmul).
const (
	sqrt3half = 0.86602540378443864676 // sin(π/3) = √3/2

	cos2pi5 = 0.30901699437494742410  // cos(2π/5)
	cos4pi5 = -0.80901699437494742410 // cos(4π/5)
	sin2pi5 = 0.95105651629515357212  // sin(2π/5)
	sin4pi5 = 0.58778525229247312917  // sin(4π/5)
)

// rmul is c·x for a real c: two real products, (c·xr, c·xi), not Go's
// complex product by complex(c, 0), whose 0·x terms only flip the sign
// of a zero or turn an Inf into a NaN. The conversions round each
// product, so the compiler cannot contract it into a fused multiply-add
// with the sum it feeds (the spec allows that only without one), and
// the vector codelets' single VMULPD gives the same bits.
func rmul(c float64, x complex128) complex128 {
	return complex(float64(c*real(x)), float64(c*imag(x)))
}

// w7 holds the radix-7 codelet's roots of unity ω_7^k.
var w7 = func() (w [7]complex128) {
	for k := range w {
		ang := -2 * math.Pi * float64(k) / 7
		w[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return w
}()

// Factor splits n into the radix schedule the mixed-radix planner
// executes — factors drawn from {4, 2, 3, 5, 7}, power-of-two codelets
// first (all the 4s, then at most one 2), then 3s, 5s, 7s — and the
// remaining cofactor. A cofactor of 1 means the schedule covers n
// exactly; anything larger carries a prime factor outside {2, 3, 5, 7}
// and needs the Bluestein fallback. n must be ≥ 1.
func Factor(n int) (radices []int, cofactor int) {
	for n%4 == 0 {
		radices = append(radices, 4)
		n /= 4
	}
	if n%2 == 0 {
		radices = append(radices, 2)
		n /= 2
	}
	for n%3 == 0 {
		radices = append(radices, 3)
		n /= 3
	}
	for n%5 == 0 {
		radices = append(radices, 5)
		n /= 5
	}
	for n%7 == 0 {
		radices = append(radices, 7)
		n /= 7
	}
	return radices, n
}

// MixedStage is one Stockham pass: split sub-transforms of length R·M
// into R sub-transforms of length M, across S interleaved copies.
type MixedStage struct {
	R  int          // radix of this stage's codelet (2, 3, 4, 5, or 7)
	M  int          // sub-transform length after this stage
	S  int          // interleaved sub-transform count entering this stage
	Tw []complex128 // (R-1)·M twiddles: Tw[p·(R-1)+d-1] = ω_{R·M}^{p·d}
}

// MixedPlan is a mixed-radix decomposition of an N-point DFT into
// len(Radices) Stockham stages, run as passCount(Radices) passes each
// way. N = 1 yields a zero-stage plan (the identity transform). A
// MixedPlan is immutable after construction and safe for concurrent use
// on distinct buffers.
type MixedPlan struct {
	N       int
	Radices []int // the stage radices, in execution order
	Stages  []MixedStage

	fwd, inv *Schedule
}

// NewMixedPlan factors n over {2, 3, 5, 7} and builds the stage
// schedule with per-stage twiddle tables (≈2N complex entries across
// all stages). It errors, wrapping ErrUnsupportedLength, for n < 1 and
// for n with a prime factor outside {2, 3, 5, 7} — the caller's cue to
// fall back to NewBluesteinPlan.
func NewMixedPlan(n int) (*MixedPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: mixed-radix plan needs n ≥ 1, got %d", ErrUnsupportedLength, n)
	}
	radices, cofactor := Factor(n)
	if cofactor != 1 {
		return nil, fmt.Errorf("%w: %d has prime factor(s) beyond {2,3,5,7} (cofactor %d)",
			ErrUnsupportedLength, n, cofactor)
	}
	mp := &MixedPlan{N: n, Radices: radices, Stages: make([]MixedStage, 0, len(radices))}
	sub, stride := n, 1
	for _, r := range radices {
		m := sub / r
		mp.Stages = append(mp.Stages, MixedStage{R: r, M: m, S: stride, Tw: stageTwiddles(sub, r, m)})
		sub, stride = m, stride*r
	}
	mp.buildSchedules()
	return mp, nil
}

// stageTwiddles builds ω_n^{p·d} for p ∈ [0, m), d ∈ [1, r), n = r·m.
// p·d < n, so the exponent needs no reduction; angles stay in (-2π, 0].
// math.Sincos runs math.Cos's and math.Sin's reduction and polynomials
// once for both, so the table has their bits at half the cost.
func stageTwiddles(n, r, m int) []complex128 {
	tw := make([]complex128, (r-1)*m)
	for p := 0; p < m; p++ {
		for d := 1; d < r; d++ {
			sin, cos := math.Sincos(-2 * math.Pi * float64(p*d) / float64(n))
			tw[p*(r-1)+d-1] = complex(cos, sin)
		}
	}
	return tw
}

// String names the schedule for logs and plan descriptions, e.g.
// "mixed-radix[4 4 3]".
func (mp *MixedPlan) String() string {
	var b strings.Builder
	b.WriteString("mixed-radix[")
	for i, r := range mp.Radices {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(r))
	}
	b.WriteByte(']')
	return b.String()
}

// Schedule returns the plan's pass list for the forward or inverse
// transform: one pass per Stockham stage or fused pair of stages
// (stages), ping-ponging between the caller's array and the work
// buffer and ending in the caller's array — with an odd pass count the
// last pass runs there in place. The inverse has exactly these passes:
// the conjugation identity rides on them (see passes).
func (mp *MixedPlan) Schedule(inverse bool) *Schedule {
	if inverse {
		return mp.inv
	}
	return mp.fwd
}

func (mp *MixedPlan) buildSchedules() {
	mp.fwd = &Schedule{N: mp.N, Stage: PassStageMixed, Passes: mp.passes(false), work: mp.N}
	mp.inv = &Schedule{N: mp.N, Stage: PassStageMixed, Passes: mp.passes(true), work: mp.N}
}

// passes builds the stage passes of one direction. The inverse's
// conjugation identity conj(DFT(conj(x)))/N costs no pass of its own:
// the first stage conjugates what it loads and the last stores
// conj(y)·(1/N), bit for bit the unfused conj → stages → conj·1/N
// composition. N = 1 has no stage to carry them and keeps the two
// sweeps.
func (mp *MixedPlan) passes(inverse bool) []Pass {
	if len(mp.Stages) == 0 {
		if inverse {
			return inverted(nil, onData, mp.N)
		}
		return nil
	}
	var e stageEdge
	if inverse {
		e = stageEdge{conj: true, scale: 1 / float64(mp.N)}
	}
	return mp.stages(onData, onData, onWork, onData, e)
}

// stages builds the passes of the stages (mixedPass): each pair of
// consecutive stages that fusedAt names runs as one pass, every other
// stage as a pass of its own. The first pass reads in and takes the
// load edges, the last writes out and takes the store edges; pass j
// between them writes b when j is even, a when it is odd, and the next
// pass reads it. With an odd pass count the passes before the last end
// in a, so when out is a the last pass — M = 1: each unit reads and
// writes the same R elements, or R² for a pair — runs there in place.
func (mp *MixedPlan) stages(in, a, b, out operand, edges stageEdge) []Pass {
	n := len(mp.Stages)
	ps := make([]Pass, 0, passCount(mp.Radices))
	for i, k := 0, 1; i < n; i += k {
		k = 1
		if fusedAt(mp.Radices, i) {
			k = 2
		}
		src, dst := a, b
		if len(ps)%2 == 1 {
			src, dst = b, a
		}
		pass := mixedPass{st: mp.Stages[i : i+k]}
		if i == 0 {
			src, pass.e.conj, pass.e.in = in, edges.conj, edges.in
		}
		if i+k == n {
			dst, pass.e.scale, pass.e.out, pass.e.post = out, edges.scale, edges.out, edges.post
		}
		ps = append(ps, Pass{PassStageMixed, pass.units(), func(s *State, lo, hi int) { pass.run(dst(s), src(s), lo, hi) }})
	}
	return ps
}

// fusedAt reports whether stages i and i+1 of the radix schedule run as
// one pass: both come after the first stage (the last may be i+1, and
// the pair then carries the store edges and may run in place), they
// share a radix, and a vector pair codelet covers it (hasPairCodelet) —
// the Go composition of two codelets is no faster than the two stages
// while the array fits in L2, so without one the stages stay single.
// stages pairs greedily from stage 1.
func fusedAt(radices []int, i int) bool {
	return i > 0 && i+1 < len(radices) && radices[i] == radices[i+1] && hasPairCodelet(radices[i])
}

// passCount returns the number of passes the stages of the radix
// schedule make each way — its sweeps of the array: one per stage, less
// one per fused pair.
func passCount(radices []int) int {
	n := len(radices)
	for i := 1; i < len(radices); i++ {
		if fusedAt(radices, i) {
			n--
			i++
		}
	}
	return n
}

// Transform applies the forward DFT in place, serially. A wrong-length
// array is returned as an error wrapping ErrLengthMismatch.
func (mp *MixedPlan) Transform(data []complex128) error { return mp.fwd.Run(data) }

// InverseTransform applies the inverse DFT in place via the conjugation
// identity IDFT(X) = conj(DFT(conj(X)))/N.
func (mp *MixedPlan) InverseTransform(data []complex128) error { return mp.inv.Run(data) }

// TransformWith is Transform with work (length N) as the ping-pong
// buffer instead of a pooled one; work's prior contents are ignored and
// it holds intermediate values afterwards. Wrong-length buffers panic
// with an error wrapping ErrLengthMismatch.
func (mp *MixedPlan) TransformWith(data, work []complex128) {
	err := mp.fwd.Check(data)
	if err == nil && len(work) != mp.N {
		err = LengthError("work", len(work), mp.N)
	}
	must(err)
	st := statePool.Get().(*State) // pooled so the call allocates nothing; no buffers acquired
	st.Data, st.Work = data, work
	mp.fwd.Exec(st)
	st.Release()
}

// stageEdge is what a stage does at its edges besides the butterflies:
// the sweeps that only multiply, fused into its loads and stores. Loads:
// with conj set every input x is conjugated; with in set, input t is
// x[t]·in[t] for t < len(in), x conjugated first, and +0 above, where x
// — len(in) long — is not read. Stores: with scale nonzero output y is
// stored as conj(y)·scale; with out set (an M = 1 stage only) it is then
// multiplied by out[k], conj·post-scaled when post is nonzero, and
// stored only for k < len(out), into a dst that need be no longer (one
// as long as the stage holds scratch above).
type stageEdge struct {
	conj  bool
	in    []complex128
	scale float64
	out   []complex128
	post  float64
}

// stored applies the store edges to output y of element k < len(out).
func (e stageEdge) stored(y complex128, k int) complex128 {
	if e.scale != 0 {
		y = complex(real(y)*e.scale, -imag(y)*e.scale)
	}
	if e.out != nil {
		y *= e.out[k]
		if e.post != 0 {
			y = complex(real(y)*e.post, -imag(y)*e.post)
		}
	}
	return y
}

// mixedPass is one pass of a plan: st is mp.Stages[i:i+k], one stage
// (k = 1) or a fused pair (k = 2), and e its edges — the load edges
// only on stage 0, the store edges only on the last stage, so a fused
// pair, which never includes stage 0, has store edges at most, and
// only as the last pass (M = 1). Its unit (p, q),
// p < the last stage's M, q < the first stage's S, is a stage's own
// unit, or for a pair a, b of radix r a's r units (p + m·c′, q), c′ < r,
// m = b.M, and b's r units (p, q + S·d), d < r, S = a.S. a's unit c′
// reads
//
//	src[q + S·(p + m·(c′ + r·c))]   c < r,
//
// with twiddles a.Tw[(r−1)·(p + m·c′) + d − 1], and its output d is
// input c′ of b's unit d, which stores output d′ at
//
//	dst[q + S·d + r·S·d′ + r²·S·p]
//
// with twiddles b.Tw[(r−1)·p + d′ − 1]. That is the arithmetic of the
// two stages on the same values, so the bits are theirs; the r² values
// between the two halves never leave the unit, which halves the sweeps
// of the array the two stages make. A pass's units touch
// pairwise-disjoint elements.
type mixedPass struct {
	st []MixedStage
	e  stageEdge
}

// units returns the number of units in the pass, the last stage's M
// times the first stage's S; the parallel engine shards [0, units())
// across workers.
func (ps mixedPass) units() int { return ps.st[len(ps.st)-1].M * ps.st[0].S }

// run executes units [ulo, uhi) of the pass, reading src and writing
// dst (slices of length ≥ the plan's N, disjoint unless M = 1, shorter
// only as the edges allow). Unit u decomposes as p = u/S, q = u mod S;
// rects cuts the range into rectangles of units, each run by the vector
// codelets (mixed_amd64.go) where they cover the pass, else by the Go
// codelets. Which codelet computes a unit depends on the range; its
// bits do not, because the vector codelets repeat the Go codelets'
// arithmetic op for op. So any [ulo, uhi) partition of [0, units())
// produces output bitwise identical to the full-range serial pass — the
// determinism contract the parallel engine shards on.
func (ps mixedPass) run(dst, src []complex128, ulo, uhi int) {
	rects(ps.st[0].S, ulo, uhi, func(p0, p1, q0, q1 int) {
		if !ps.vec(dst, src, p0, p1, q0, q1) {
			ps.scalar(dst, src, p0, p1, q0, q1)
		}
	})
}

// scalar runs units (p, q), p ∈ [p0, p1), q ∈ [q0, q1), through the Go
// codelets: a stage's with its edges (MixedStage.scalar), a fused pair's
// composed in place in dst, pairRows rows p at a time. Stage a's unit
// (p + m·c′, q) stores its output d where b's unit (p, q + S·d) stores
// output c′, dst[q + S·d + r·S·c′ + r²·S·p]; b's codelet then runs on
// those slots in place — they belong to the fused unit alone, and a
// codelet loads a unit's r inputs before it stores any output. Each
// codelet sees the values the two stages' would, so the bits are
// theirs. That composition overwrites inputs of the unit's later
// codelets when dst is src, so a last pair (M = 1), which may run in
// place, runs a unit at a time through a stack tile (lastUnit).
func (ps mixedPass) scalar(dst, src []complex128, p0, p1, q0, q1 int) {
	a := &ps.st[0]
	if len(ps.st) == 1 {
		a.scalar(dst, src, p0, p1, q0, q1, ps.e)
		return
	}
	b := &ps.st[1]
	r, s, m := a.R, a.S, b.M
	if m == 1 {
		for q := q0; q < q1; q++ {
			ps.lastUnit(dst, src, q)
		}
		return
	}
	for pa := p0; pa < p1; pa += pairRows {
		np := min(pairRows, p1-pa)
		for c := range r {
			p := pa + m*c
			codelet(r, dst[r*r*s*pa+r*s*c+q0:], src[s*p+q0:], a.Tw[(r-1)*p:], cgeom{ir: s, il: s * a.M, it: r - 1, or: r * r * s, ol: s}, np, q1-q0)
		}
		for d := range r {
			o := dst[r*r*s*pa+s*d+q0:]
			codelet(r, o, o, b.Tw[(r-1)*pa:], cgeom{ir: r * r * s, il: r * s, it: r - 1, or: r * r * s, ol: r * s}, np, q1-q0)
		}
	}
}

// lastUnit runs unit (0, q) of a pair whose stage b is the last (M = 1)
// through a stack tile, so that it may run in place and carry the store
// edges: its r² inputs, S apart from q, go through stage a's r codelets
// into the tile, [c'][d], and stage b's codelets run there in place,
// leaving output row j = d + r·d' at tile[j]; the store edges then take
// row j to dst[q + S·j] as MixedStage.store does.
func (ps mixedPass) lastUnit(dst, src []complex128, q int) {
	a, b := &ps.st[0], &ps.st[1]
	r, s := a.R, a.S
	var t [25]complex128 // r ≤ 5: pairs fuse only where a vector pair codelet runs
	codelet(r, t[:], src[q:], a.Tw, cgeom{ir: s, il: r * s, it: r - 1, or: r, ol: 1}, r, 1)
	codelet(r, t[:], t[:], b.Tw, cgeom{il: r, it: r - 1, ol: r}, 1, r)
	lim := len(dst)
	if ps.e.out != nil {
		lim = len(ps.e.out)
	}
	for j, y := range t[:r*r] {
		k := q + s*j
		if k >= lim {
			break
		}
		dst[k] = ps.e.stored(y, k)
	}
}

// pairRows is how many rows of fused units the Go pair runs per block,
// r codelet calls for each half. That path takes an odd S's last q
// column, whose r² elements a row lie S apart, so a block's stores are
// still in cache when b loads them; blocks of one row make r = 3's
// calls cost a third more.
const pairRows = 64

// rects cuts units [ulo, uhi), unit u = (u/s, u mod s), into at most
// three rectangles p ∈ [p0, p1), q ∈ [q0, q1) — a partial row of q,
// whole rows, a partial row — and calls f on each in order.
func rects(s, ulo, uhi int, f func(p0, p1, q0, q1 int)) {
	for u := ulo; u < uhi; {
		p0, q0 := u/s, u%s
		p1, q1 := p0+1, min(s, q0+uhi-u)
		if q0 == 0 && uhi-u >= s {
			p1, q1 = p0+(uhi-u)/s, s
		}
		u = s*(p1-1) + q1 // the unit after the rectangle's last
		f(p0, p1, q0, q1)
	}
}

// scalar runs units (p, q), p ∈ [p0, p1), q ∈ [q0, q1), through the Go
// codelets. With edges it goes in blocks of at most pairRows units, so
// each element is read and written once, as without edges: load edges
// gather a block's inputs into a stack tile that the codelet reads, and
// store edges sweep the block's outputs into dst while they are still
// in L1. With a dst shorter than the stage it runs in place in src
// (M = 1).
func (st *MixedStage) scalar(dst, src []complex128, p0, p1, q0, q1 int, e stageEdge) {
	r, s := st.R, st.S
	buf := dst
	if len(dst) < r*s*st.M {
		buf = src
	}
	g := cgeom{ir: s, il: s * st.M, it: r - 1, or: r * s, ol: s}
	load := e.conj || e.in != nil
	if !load && e.scale == 0 && e.out == nil {
		codelet(r, buf[r*s*p0+q0:], src[s*p0+q0:], st.Tw[(r-1)*p0:], g, p1-p0, q1-q0)
		return
	}
	var t []complex128
	if load {
		t = make([]complex128, 7*pairRows) // the block's r ≤ 7 input rows
	}
	nq := min(q1-q0, pairRows)
	for qa := q0; qa < q1; qa += nq {
		qb := min(qa+nq, q1)
		for pa := p0; pa < p1; pa += pairRows / nq {
			pb := min(pa+pairRows/nq, p1)
			var in []complex128
			gb := g
			if load {
				in, gb.ir, gb.il = st.gather(t, src, pa, pb, qa, qb, e), qb-qa, (pb-pa)*(qb-qa)
			} else {
				in = src[s*pa+qa:]
			}
			codelet(r, buf[r*s*pa+qa:], in, st.Tw[(r-1)*pa:], gb, pb-pa, qb-qa)
			if e.scale != 0 || e.out != nil {
				st.store(dst, buf, pa, pb, qa, qb, e)
			}
		}
	}
}

// gather loads input c of unit (p, q), p ∈ [p0, p1), q ∈ [q0, q1), with
// the load edges applied, into t[(c·np + p − p0)·nq + q − q0] (np, nq
// the block's rows and columns) and returns t. A block of whole rows of
// q — every block of stage 0, where S = 1 — is one run per c.
func (st *MixedStage) gather(t, src []complex128, p0, p1, q0, q1 int, e stageEdge) []complex128 {
	run, runs := q1-q0, p1-p0
	if run == st.S {
		run, runs = run*runs, 1
	}
	for c := range st.R {
		for j := range runs {
			row, k := t[(c*runs+j)*run:][:run], st.S*(p0+j+st.M*c)+q0
			if e.in == nil { // conj alone
				for i, x := range src[k : k+run] {
					row[i] = complex(real(x), -imag(x))
				}
				continue
			}
			live := min(run, max(0, len(e.in)-k))
			for i := range live {
				x := src[k+i]
				if e.conj {
					x = complex(real(x), -imag(x))
				}
				row[i] = x * e.in[k+i]
			}
			clear(row[live:])
		}
	}
	return t
}

// store sweeps the rectangle's outputs — per unit R elements S apart at
// R·S·p + q — from buf into dst with the store edges applied.
func (st *MixedStage) store(dst, buf []complex128, p0, p1, q0, q1 int, e stageEdge) {
	r, s, lim := st.R, st.S, len(dst)
	if e.out != nil {
		lim = len(e.out)
	}
	for p := p0; p < p1; p++ {
		for d := 0; d < r; d++ {
			k0 := r*s*p + d*s
			for k := k0 + q0; k < min(k0+q1, lim); k++ {
				dst[k] = e.stored(buf[k], k)
			}
		}
	}
}

// cgeom places a rectangle of units for the Go codelets: unit (j, k),
// j < rows, k < cols, reads input c at src[ir·j + k + il·c], multiplies
// output d ≥ 1 by tw[it·j + d − 1] and writes it at dst[or·j + k + ol·d]
// — the slices starting at the rectangle's first unit. A stage's
// rectangle of rows p is (S, S·M, R − 1, R·S, S); where scalar gathered
// its inputs it reads (R·S, S); mixedPass.scalar places each half of a
// fused unit, rows p, with it.
type cgeom struct{ ir, il, it, or, ol int }

// codelet runs the radix-r Go codelet over rows × cols units placed by
// g.
func codelet(r int, dst, src, tw []complex128, g cgeom, rows, cols int) {
	switch r {
	case 2:
		pass2(dst, src, tw, g, rows, cols)
	case 3:
		pass3(dst, src, tw, g, rows, cols)
	case 4:
		pass4(dst, src, tw, g, rows, cols)
	case 5:
		pass5(dst, src, tw, g, rows, cols)
	case 7:
		pass7(dst, src, tw, g, rows, cols)
	}
}

// The Go codelets. Each runs a rectangle of units placed by g, the
// twiddles of a row loaded once for its run of k. They are the
// reference the vector codelets are tested against (mixed_test.go):
// change one and the other must follow, op for op.

func pass2(dst, src, tw []complex128, g cgeom, rows, cols int) {
	for j := range rows {
		w1 := tw[g.it*j]
		in, out := g.ir*j, g.or*j
		for k := range cols {
			u0 := src[in+k]
			u1 := src[in+k+g.il]
			dst[out+k] = u0 + u1
			dst[out+k+g.ol] = (u0 - u1) * w1
		}
	}
}

func pass3(dst, src, tw []complex128, g cgeom, rows, cols int) {
	for j := range rows {
		w := tw[g.it*j:]
		w1, w2 := w[0], w[1]
		in, out := g.ir*j, g.or*j
		for k := range cols {
			u0 := src[in+k]
			u1 := src[in+k+g.il]
			u2 := src[in+k+2*g.il]
			t1 := u1 + u2
			t2 := u1 - u2
			m1 := u0 - rmul(0.5, t1)
			m2 := complex(sqrt3half*imag(t2), -sqrt3half*real(t2)) // -i·(√3/2)·t2
			dst[out+k] = u0 + t1
			dst[out+k+g.ol] = (m1 + m2) * w1
			dst[out+k+2*g.ol] = (m1 - m2) * w2
		}
	}
}

func pass4(dst, src, tw []complex128, g cgeom, rows, cols int) {
	for j := range rows {
		w := tw[g.it*j:]
		w1, w2, w3 := w[0], w[1], w[2]
		in, out := g.ir*j, g.or*j
		for k := range cols {
			u0 := src[in+k]
			u1 := src[in+k+g.il]
			u2 := src[in+k+2*g.il]
			u3 := src[in+k+3*g.il]
			t0 := u0 + u2
			t1 := u0 - u2
			t2 := u1 + u3
			t3 := u1 - u3
			it3 := complex(imag(t3), -real(t3)) // -i·t3
			dst[out+k] = t0 + t2
			dst[out+k+g.ol] = (t1 + it3) * w1
			dst[out+k+2*g.ol] = (t0 - t2) * w2
			dst[out+k+3*g.ol] = (t1 - it3) * w3
		}
	}
}

func pass5(dst, src, tw []complex128, g cgeom, rows, cols int) {
	for j := range rows {
		w := tw[g.it*j:]
		w1, w2, w3, w4 := w[0], w[1], w[2], w[3]
		in, out := g.ir*j, g.or*j
		for k := range cols {
			u0 := src[in+k]
			u1 := src[in+k+g.il]
			u2 := src[in+k+2*g.il]
			u3 := src[in+k+3*g.il]
			u4 := src[in+k+4*g.il]
			t1 := u1 + u4
			t2 := u2 + u3
			t3 := u1 - u4
			t4 := u2 - u3
			m1 := u0 + rmul(cos2pi5, t1) + rmul(cos4pi5, t2)
			m2 := u0 + rmul(cos4pi5, t1) + rmul(cos2pi5, t2)
			a := rmul(sin2pi5, t3) + rmul(sin4pi5, t4)
			b := rmul(sin4pi5, t3) - rmul(sin2pi5, t4)
			m3 := complex(imag(a), -real(a)) // -i·a
			m4 := complex(imag(b), -real(b)) // -i·b
			dst[out+k] = u0 + t1 + t2
			dst[out+k+g.ol] = (m1 + m3) * w1
			dst[out+k+2*g.ol] = (m2 + m4) * w2
			dst[out+k+3*g.ol] = (m2 - m4) * w3
			dst[out+k+4*g.ol] = (m1 - m3) * w4
		}
	}
}

func pass7(dst, src, tw []complex128, g cgeom, rows, cols int) {
	for j := range rows {
		w := tw[g.it*j:]
		in, out := g.ir*j, g.or*j
		for k := range cols {
			var u [7]complex128
			for c := range u {
				u[c] = src[in+k+c*g.il]
			}
			dst[out+k] = u[0] + u[1] + u[2] + u[3] + u[4] + u[5] + u[6]
			for d := 1; d < 7; d++ {
				v := u[0]
				e := 0
				for c := 1; c < 7; c++ {
					e += d
					if e >= 7 {
						e -= 7
					}
					v += u[c] * w7[e]
				}
				dst[out+k+d*g.ol] = v * w[d-1]
			}
		}
	}
}
