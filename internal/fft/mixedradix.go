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
// generalized from the radix-2 case. The last stage (m = 1) may run in
// place, so a plan ends in the caller's array at any stage count, and
// multiply-only sweeps ride on the stages' edges (stageEdge). Units
// within a stage touch pairwise-disjoint elements and are
// arithmetically self-contained, so a stage shards across workers with
// bitwise-identical output to the serial pass (internal/host leans on
// this as it does for the staged power-of-two plan). On amd64 the
// radix-2…5 butterflies run as AVX codelets (mixed_amd64.s) that give
// the Go codelets' bits.
package fft

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Butterfly constants: cos/sin of the radix-3 and radix-5 roots of
// unity, spelled as untyped constants so they contract into complex
// arithmetic without conversions.
const (
	sqrt3half = 0.86602540378443864676 // sin(π/3) = √3/2

	cos2pi5 = 0.30901699437494742410  // cos(2π/5)
	cos4pi5 = -0.80901699437494742410 // cos(4π/5)
	sin2pi5 = 0.95105651629515357212  // sin(2π/5)
	sin4pi5 = 0.58778525229247312917  // sin(4π/5)
)

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

// Units returns the number of independent butterfly units in the stage;
// the parallel engine shards [0, Units()) across workers.
func (st *MixedStage) Units() int { return st.M * st.S }

// MixedPlan is a mixed-radix decomposition of an N-point DFT into
// len(Radices) Stockham passes. N = 1 yields a zero-stage plan (the
// identity transform). A MixedPlan is immutable after construction and
// safe for concurrent use on distinct buffers.
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
func stageTwiddles(n, r, m int) []complex128 {
	tw := make([]complex128, (r-1)*m)
	for p := 0; p < m; p++ {
		for d := 1; d < r; d++ {
			ang := -2 * math.Pi * float64(p*d) / float64(n)
			tw[p*(r-1)+d-1] = complex(math.Cos(ang), math.Sin(ang))
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
// transform: one pass per Stockham stage, ping-ponging between the
// caller's array and the work buffer and ending in the caller's array —
// with an odd stage count the last stage runs there in place. The
// inverse has exactly these passes: the conjugation identity rides on
// them (see passes).
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

// stages builds one pass per stage. Stage 0 reads in; stage i below the
// last writes b when i is even, a when it is odd, and the next stage
// reads it; the last writes out. With an odd stage count the stages
// before the last end in a, so when out is a the last stage — M = 1:
// each unit reads and writes the same R elements — runs there in
// place. Stage 0 takes the loads of edges, the last stage its stores.
func (mp *MixedPlan) stages(in, a, b, out operand, edges stageEdge) []Pass {
	n := len(mp.Stages)
	ps := make([]Pass, n)
	for i := range mp.Stages {
		st, src, dst, e := &mp.Stages[i], a, b, stageEdge{}
		if i%2 == 1 {
			src, dst = b, a
		}
		if i == 0 {
			src, e.conj, e.in = in, edges.conj, edges.in
		}
		if i == n-1 {
			dst, e.scale, e.out, e.post = out, edges.scale, edges.out, edges.post
		}
		ps[i] = Pass{PassStageMixed, st.Units(), func(s *State, lo, hi int) { st.run(dst(s), src(s), lo, hi, e) }}
	}
	return ps
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

// run executes butterfly units [ulo, uhi) of the stage, reading src and
// writing dst (slices of length ≥ the plan's N, disjoint unless M = 1,
// shorter only as e allows), with the edges e. Unit u decomposes as
// p = u/S, q = u mod S. The range is cut into at most three rectangles
// of units — a partial row of q, whole rows, a partial row — each run
// by the vector codelets (mixed_amd64.go) where they cover the stage,
// else by the Go codelets. Which codelet computes a unit depends on the
// range; its bits do not, because the vector codelets repeat the Go
// codelets' arithmetic op for op. So any [ulo, uhi) partition of
// [0, Units()) produces output bitwise identical to the full-range
// serial pass — the determinism contract the parallel engine shards on.
func (st *MixedStage) run(dst, src []complex128, ulo, uhi int, e stageEdge) {
	s := st.S
	for u := ulo; u < uhi; {
		p0, q0 := u/s, u%s
		p1, q1 := p0+1, min(s, q0+uhi-u)
		if q0 == 0 && uhi-u >= s {
			p1, q1 = p0+(uhi-u)/s, s
		}
		u = s*(p1-1) + q1 // the unit after the rectangle's last
		if !st.vec(dst, src, p0, p1, q0, q1, e) {
			st.scalar(dst, src, p0, p1, q0, q1, e)
		}
	}
}

// scalar runs units (p, q), p ∈ [p0, p1), q ∈ [q0, q1), through the Go
// codelets, the edges as sweeps over the rectangle's own elements: load
// edges gather its inputs to where its units store, and the codelet
// runs there in place; store edges sweep its outputs into dst. With a
// dst shorter than the stage it runs in place in src (M = 1).
func (st *MixedStage) scalar(dst, src []complex128, p0, p1, q0, q1 int, e stageEdge) {
	r, s := st.R, st.S
	buf := dst
	if len(dst) < r*s*st.M {
		buf = src
	}
	ir, il := s, s*st.M
	if e.conj || e.in != nil {
		st.gather(buf, src, p0, p1, q0, q1, e)
		src, ir, il = buf, r*s, s
	}
	goCodelets[r](st, buf, src, ir, il, p0, p1, q0, q1)
	if e.scale != 0 || e.out != nil {
		st.store(dst, buf, p0, p1, q0, q1, e)
	}
}

// gather writes input c of unit (p, q), load edges applied, to
// buf[R·S·p + q + c·S], where the unit stores output c (and, when buf
// is src, M = 1, reads it).
func (st *MixedStage) gather(buf, src []complex128, p0, p1, q0, q1 int, e stageEdge) {
	r, s, sm := st.R, st.S, st.S*st.M
	for p := p0; p < p1; p++ {
		for c := 0; c < r; c++ {
			b, t := buf[r*s*p+c*s:], s*p+c*sm
			for q := q0; q < q1; q++ {
				if e.in != nil && t+q >= len(e.in) {
					b[q] = 0
					continue
				}
				x := src[t+q]
				if e.conj {
					x = complex(real(x), -imag(x))
				}
				if e.in != nil {
					x *= e.in[t+q]
				}
				b[q] = x
			}
		}
	}
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
				y := buf[k]
				if e.scale != 0 {
					y = complex(real(y)*e.scale, -imag(y)*e.scale)
				}
				if e.out != nil {
					y *= e.out[k]
					if e.post != 0 {
						y = complex(real(y)*e.post, -imag(y)*e.post)
					}
				}
				dst[k] = y
			}
		}
	}
}

var goCodelets = [...]func(st *MixedStage, dst, src []complex128, ir, il, p0, p1, q0, q1 int){
	2: (*MixedStage).pass2, 3: (*MixedStage).pass3, 4: (*MixedStage).pass4, 5: (*MixedStage).pass5, 7: (*MixedStage).pass7,
}

// The Go codelets. Each runs the rectangle p ∈ [p0, p1), q ∈ [q0, q1)
// of units, the twiddles of a p loaded once for its run of q; unit
// (p, q) reads input c at src[ir·p + q + il·c] — (S, S·M) in a plain
// stage, (R·S, S) where scalar gathered its inputs. They are
// the reference the vector codelets are tested against (mixed_test.go):
// change one and the other must follow, op for op.

func (st *MixedStage) pass2(dst, src []complex128, ir, il, p0, p1, q0, q1 int) {
	s := st.S
	for p := p0; p < p1; p++ {
		w1 := st.Tw[p]
		in, out := ir*p, 2*s*p
		for q := q0; q < q1; q++ {
			u0 := src[in+q]
			u1 := src[in+q+il]
			dst[out+q] = u0 + u1
			dst[out+q+s] = (u0 - u1) * w1
		}
	}
}

func (st *MixedStage) pass3(dst, src []complex128, ir, il, p0, p1, q0, q1 int) {
	s := st.S
	for p := p0; p < p1; p++ {
		tw := st.Tw[2*p:]
		w1, w2 := tw[0], tw[1]
		in, out := ir*p, 3*s*p
		for q := q0; q < q1; q++ {
			u0 := src[in+q]
			u1 := src[in+q+il]
			u2 := src[in+q+2*il]
			t1 := u1 + u2
			t2 := u1 - u2
			m1 := u0 - 0.5*t1
			m2 := complex(sqrt3half*imag(t2), -sqrt3half*real(t2)) // -i·(√3/2)·t2
			dst[out+q] = u0 + t1
			dst[out+q+s] = (m1 + m2) * w1
			dst[out+q+2*s] = (m1 - m2) * w2
		}
	}
}

func (st *MixedStage) pass4(dst, src []complex128, ir, il, p0, p1, q0, q1 int) {
	s := st.S
	for p := p0; p < p1; p++ {
		tw := st.Tw[3*p:]
		w1, w2, w3 := tw[0], tw[1], tw[2]
		in, out := ir*p, 4*s*p
		for q := q0; q < q1; q++ {
			u0 := src[in+q]
			u1 := src[in+q+il]
			u2 := src[in+q+2*il]
			u3 := src[in+q+3*il]
			t0 := u0 + u2
			t1 := u0 - u2
			t2 := u1 + u3
			t3 := u1 - u3
			it3 := complex(imag(t3), -real(t3)) // -i·t3
			dst[out+q] = t0 + t2
			dst[out+q+s] = (t1 + it3) * w1
			dst[out+q+2*s] = (t0 - t2) * w2
			dst[out+q+3*s] = (t1 - it3) * w3
		}
	}
}

func (st *MixedStage) pass5(dst, src []complex128, ir, il, p0, p1, q0, q1 int) {
	s := st.S
	for p := p0; p < p1; p++ {
		tw := st.Tw[4*p:]
		w1, w2, w3, w4 := tw[0], tw[1], tw[2], tw[3]
		in, out := ir*p, 5*s*p
		for q := q0; q < q1; q++ {
			u0 := src[in+q]
			u1 := src[in+q+il]
			u2 := src[in+q+2*il]
			u3 := src[in+q+3*il]
			u4 := src[in+q+4*il]
			t1 := u1 + u4
			t2 := u2 + u3
			t3 := u1 - u4
			t4 := u2 - u3
			m1 := u0 + cos2pi5*t1 + cos4pi5*t2
			m2 := u0 + cos4pi5*t1 + cos2pi5*t2
			a := sin2pi5*t3 + sin4pi5*t4
			b := sin4pi5*t3 - sin2pi5*t4
			m3 := complex(imag(a), -real(a)) // -i·a
			m4 := complex(imag(b), -real(b)) // -i·b
			dst[out+q] = u0 + t1 + t2
			dst[out+q+s] = (m1 + m3) * w1
			dst[out+q+2*s] = (m2 + m4) * w2
			dst[out+q+3*s] = (m2 - m4) * w3
			dst[out+q+4*s] = (m1 - m3) * w4
		}
	}
}

func (st *MixedStage) pass7(dst, src []complex128, ir, il, p0, p1, q0, q1 int) {
	s := st.S
	for p := p0; p < p1; p++ {
		tw := st.Tw[6*p:]
		in, out := ir*p, 7*s*p
		for q := q0; q < q1; q++ {
			var u [7]complex128
			for c := range u {
				u[c] = src[in+q+c*il]
			}
			dst[out+q] = u[0] + u[1] + u[2] + u[3] + u[4] + u[5] + u[6]
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
				dst[out+q+d*s] = v * tw[d-1]
			}
		}
	}
}
