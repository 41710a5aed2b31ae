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
// generalized from the radix-2 case. Units within a stage touch
// pairwise-disjoint elements and are arithmetically self-contained, so
// a stage shards across workers with bitwise-identical output to the
// serial pass (internal/host leans on this exactly as it does for the
// staged power-of-two plan).
package fft

import (
	"fmt"
	"math"
	"math/bits"
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

// RadixSignature packs the radix decomposition of n into a uint64 for
// cache keys: 8 bits each for the multiplicities of 2, 3, 5, and 7,
// plus a high bit marking a residual cofactor (the Bluestein regime).
// Two lengths with equal signatures plan the same algorithm with the
// same stage structure. Non-positive n returns 0.
func RadixSignature(n int) uint64 {
	if n < 1 {
		return 0
	}
	// The multiplicity of 2 is a bit count, not a division loop: this
	// runs on every cached-plan lookup, mostly for powers of two.
	twos := bits.TrailingZeros(uint(n))
	n >>= twos
	sig := uint64(twos)
	shift := uint(8)
	for _, p := range [...]int{3, 5, 7} {
		var c uint64
		for n%p == 0 {
			n /= p
			c++
		}
		sig |= (c & 0xff) << shift
		shift += 8
	}
	if n > 1 {
		sig |= 1 << 63
	}
	return sig
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
// caller's array and the work buffer, a copy-back pass when the stage
// count is odd, and the conjugation identity's two sweeps around it all
// for the inverse.
func (mp *MixedPlan) Schedule(inverse bool) *Schedule {
	if inverse {
		return mp.inv
	}
	return mp.fwd
}

func (mp *MixedPlan) buildSchedules() {
	var ps []Pass
	for i := range mp.Stages {
		st := &mp.Stages[i]
		src, dst := onData, onWork
		if i%2 == 1 {
			src, dst = dst, src
		}
		ps = append(ps, Pass{PassStageMixed, st.Units(), func(s *State, lo, hi int) { st.Pass(src(s), dst(s), lo, hi) }})
	}
	if len(mp.Stages)%2 == 1 {
		ps = append(ps, Pass{PassStageMixed, mp.N, func(s *State, lo, hi int) { copy(s.Data[lo:hi], s.Work[lo:hi]) }})
	}
	mp.fwd = &Schedule{N: mp.N, Stage: PassStageMixed, Passes: ps, work: mp.N}
	mp.inv = &Schedule{N: mp.N, Stage: PassStageMixed, Passes: inverted(ps, onData, mp.N), work: mp.N}
}

// Transform applies the forward DFT in place, serially.
func (mp *MixedPlan) Transform(data []complex128) { mp.fwd.Run(data) }

// InverseTransform applies the inverse DFT in place via the conjugation
// identity IDFT(X) = conj(DFT(conj(X)))/N.
func (mp *MixedPlan) InverseTransform(data []complex128) { mp.inv.Run(data) }

// TransformWith is Transform with work (length N) as the ping-pong
// buffer instead of a pooled one; work's prior contents are ignored and
// it holds intermediate values afterwards. Wrong-length buffers panic
// with an error wrapping ErrLengthMismatch.
func (mp *MixedPlan) TransformWith(data, work []complex128) {
	mp.fwd.Check(data)
	if len(work) != mp.N {
		panic(LengthError("work", len(work), mp.N))
	}
	st := statePool.Get().(*State) // pooled so the call allocates nothing; no buffers acquired
	st.Data, st.Work = data, work
	mp.fwd.Exec(st)
	st.Release()
}

// Pass executes butterfly units [ulo, uhi) of the stage, reading src
// and writing dst (disjoint slices of length ≥ the plan's N). Unit u
// decomposes as p = u/S, q = u mod S; the iteration groups units by p
// so each twiddle vector is loaded once. Any [ulo, uhi) partition of
// [0, Units()) produces output bitwise identical to the full-range
// serial pass — the determinism contract the parallel engine shards on.
func (st *MixedStage) Pass(src, dst []complex128, ulo, uhi int) {
	s := st.S
	for u := ulo; u < uhi; {
		p := u / s
		q0 := u - p*s
		q1 := s
		if left := uhi - u; left < q1-q0 {
			q1 = q0 + left
		}
		switch st.R {
		case 2:
			st.pass2(src, dst, p, q0, q1)
		case 3:
			st.pass3(src, dst, p, q0, q1)
		case 4:
			st.pass4(src, dst, p, q0, q1)
		case 5:
			st.pass5(src, dst, p, q0, q1)
		default:
			st.pass7(src, dst, p, q0, q1)
		}
		u += q1 - q0
	}
}

func (st *MixedStage) pass2(src, dst []complex128, p, q0, q1 int) {
	s, sm := st.S, st.S*st.M
	w1 := st.Tw[p]
	in, out := s*p, 2*s*p
	for q := q0; q < q1; q++ {
		u0 := src[in+q]
		u1 := src[in+q+sm]
		dst[out+q] = u0 + u1
		dst[out+q+s] = (u0 - u1) * w1
	}
}

func (st *MixedStage) pass3(src, dst []complex128, p, q0, q1 int) {
	s, sm := st.S, st.S*st.M
	tw := st.Tw[2*p:]
	w1, w2 := tw[0], tw[1]
	in, out := s*p, 3*s*p
	for q := q0; q < q1; q++ {
		u0 := src[in+q]
		u1 := src[in+q+sm]
		u2 := src[in+q+2*sm]
		t1 := u1 + u2
		t2 := u1 - u2
		m1 := u0 - 0.5*t1
		m2 := complex(sqrt3half*imag(t2), -sqrt3half*real(t2)) // -i·(√3/2)·t2
		dst[out+q] = u0 + t1
		dst[out+q+s] = (m1 + m2) * w1
		dst[out+q+2*s] = (m1 - m2) * w2
	}
}

func (st *MixedStage) pass4(src, dst []complex128, p, q0, q1 int) {
	s, sm := st.S, st.S*st.M
	tw := st.Tw[3*p:]
	w1, w2, w3 := tw[0], tw[1], tw[2]
	in, out := s*p, 4*s*p
	for q := q0; q < q1; q++ {
		u0 := src[in+q]
		u1 := src[in+q+sm]
		u2 := src[in+q+2*sm]
		u3 := src[in+q+3*sm]
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

func (st *MixedStage) pass5(src, dst []complex128, p, q0, q1 int) {
	s, sm := st.S, st.S*st.M
	tw := st.Tw[4*p:]
	w1, w2, w3, w4 := tw[0], tw[1], tw[2], tw[3]
	in, out := s*p, 5*s*p
	for q := q0; q < q1; q++ {
		u0 := src[in+q]
		u1 := src[in+q+sm]
		u2 := src[in+q+2*sm]
		u3 := src[in+q+3*sm]
		u4 := src[in+q+4*sm]
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

func (st *MixedStage) pass7(src, dst []complex128, p, q0, q1 int) {
	s, sm := st.S, st.S*st.M
	tw := st.Tw[6*p:]
	in, out := s*p, 7*s*p
	for q := q0; q < q1; q++ {
		var u [7]complex128
		for c := range u {
			u[c] = src[in+q+c*sm]
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
