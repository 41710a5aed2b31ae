// Bluestein (chirp-z) planning: an arbitrary-N DFT as a circular
// convolution, covering the lengths the mixed-radix planner cannot —
// anything with a prime factor outside {2, 3, 5, 7}. With the chirp
// c[t] = exp(-iπ·t²/N), the identity t·k = (t² + k² - (k-t)²)/2
// rewrites the DFT as
//
//	X[k] = c[k] · Σ_t (x[t]·c[t]) · conj(c[k-t])
//
// — a linear convolution of the chirp-premultiplied input with the
// conjugate chirp, embedded in a circular convolution of any length
// M ≥ 2N-1. BluesteinLen picks M as the cheapest {2, 3, 5}-smooth
// length near 2N (the next power of two among the candidates), and the
// mixed-radix plan's vector stages run it, nested on the work buffer,
// so the parallel engine applies to the heavy lifting unchanged. The
// filter's spectrum is fixed per plan and precomputed once; it and the
// chirps, sweeps that only multiply, ride on the stages next to them.
package fft

import (
	"fmt"
	"math/bits"
)

// BluesteinPlan computes N-point DFTs for any N ≥ 1 via the chirp-z
// embedding. It is immutable after construction and safe for concurrent
// use on distinct buffers.
type BluesteinPlan struct {
	N int // transform length
	M int // convolution length: BluesteinLen(N)

	// Conv is the M-point mixed-radix plan whose stages execute the
	// embedded convolution.
	Conv *MixedPlan

	// Chirp[t] = exp(-iπ·t²/N) for t ∈ [0, N) — the pre- and
	// post-multiplier. The squared index is reduced mod 2N in integer
	// arithmetic before the angle is formed, so the chirp stays
	// accurate at large t.
	Chirp []complex128

	// BHat is the forward M-point FFT of the wrapped conjugate-chirp
	// filter b (b[t] = conj(Chirp[t]), mirrored into b[M-t]).
	BHat []complex128

	fwd, inv *Schedule
}

// bluesteinMaxN is the largest n BluesteinLen accepts: 2n-1 and its
// power of two still fit an int.
const bluesteinMaxN = 1 << (bits.UintSize - 3)

// BluesteinLen returns the convolution length M of the n-point chirp-z
// plan. Let M₂ be the smallest power of two ≥ max(2n-1, 2); M is the
// cheapest of M₂ and the multiples of 4 in [2n-1, M₂] with no prime
// factor beyond 5, by M·len(Factor(M)), ties to the smaller. That
// prices a plan by its stages, not by its passes (passCount, which
// folds fused pairs): pricing by passes would move M, and with it the
// bits, and would make them differ where the pair codelets do not run.
// A multiple of 4 starts on the vector radix-4 codelet, which alone
// among them covers the first stage; radix 7 runs only in Go, so it is
// not a candidate. The rule is transformLen's, at 2n-1. It returns 0
// for n < 1 and for n so large that M₂ would overflow an int.
func BluesteinLen(n int) int {
	if n < 1 || n > bluesteinMaxN {
		return 0
	}
	return transformLen(max(2*n-1, 2))
}

// transformLen returns the cheapest transform length ≥ lo, lo ≥ 1, by
// smoothLen: M₂, the smallest power of two ≥ lo, or a {2,3,5}-smooth
// multiple of 4 in [lo, M₂]. It returns 0 when M₂ would overflow an int.
// Bluestein's convolutions and overlap-save's segments (NewConvSpec)
// take their lengths from it.
func transformLen(lo int) int {
	if lo > 1<<(bits.UintSize-2) {
		return 0
	}
	return smoothLen(lo, 1<<bits.Len(uint(lo-1)))
}

// smoothLen returns the candidate of least cost m·len(Factor(m)) among
// m2 — a power of two ≥ lo — and the multiples of 4 in [lo, m2] with no
// prime factor beyond 5, ties to the smaller m. It enumerates the
// products p = 3^b·5^c and takes, for each, the least 2^a·p with a ≥ 2
// that reaches lo: a larger a costs more in both factors. That is
// O(log² m2) candidates, and no product beyond m2 is formed.
func smoothLen(lo, m2 int) int {
	best, stages := m2, (bits.TrailingZeros(uint(m2))+1)/2
	for p5, c := 1, 0; p5 <= m2/4; p5, c = p5*5, c+1 {
		for p, b := p5, 0; p <= m2/4; p, b = p*3, b+1 {
			m, a := 4*p, 2
			for m < lo {
				m, a = 2*m, a+1
			}
			if m > m2 {
				continue
			}
			if s := (a+1)/2 + b + c; cheaper(m, s, best, stages) {
				best, stages = m, s
			}
		}
	}
	return best
}

// cheaper reports whether m at s stages costs less than best at bs:
// m·s < best·bs, or equal with m < best. The products are taken in 128
// bits, so no m an int holds overflows them.
func cheaper(m, s, best, bs int) bool {
	h1, l1 := bits.Mul64(uint64(m), uint64(s))
	h2, l2 := bits.Mul64(uint64(best), uint64(bs))
	if h1 != h2 {
		return h1 < h2
	}
	return l1 < l2 || l1 == l2 && m < best
}

// NewBluesteinPlan builds the chirp-z plan for n-point transforms. It
// errors, wrapping ErrUnsupportedLength, for n < 1 and for n whose
// convolution length would overflow an int.
func NewBluesteinPlan(n int) (*BluesteinPlan, error) {
	m := BluesteinLen(n)
	if m == 0 {
		return nil, fmt.Errorf("%w: bluestein plan needs 1 ≤ n ≤ %d, got %d", ErrUnsupportedLength, bluesteinMaxN, n)
	}
	conv, err := NewMixedPlan(m)
	if err != nil {
		return nil, err
	}
	bp := &BluesteinPlan{N: n, M: m, Conv: conv, Chirp: make([]complex128, n), BHat: make([]complex128, m)}
	// chirp[t] = ω_{2n}^{t² mod 2n}; the exponent steps by
	// (t+1)² − t² = 2t + 1, so no t² is formed and nothing overflows.
	for t, e := 0, 0; t < n; t++ {
		bp.Chirp[t] = root(e, 2*n)
		if e += 2*t + 1; e >= 2*n {
			e -= 2 * n
		}
	}

	b := bp.BHat
	b[0] = 1 // conj(chirp[0])
	for t := 1; t < n; t++ {
		c := complex(real(bp.Chirp[t]), -imag(bp.Chirp[t]))
		b[t] = c
		b[m-t] = c
	}
	if err := conv.Transform(b); err != nil {
		return nil, err
	}
	bp.fwd, bp.inv = bp.schedule(false), bp.schedule(true)
	return bp, nil
}

// String names the plan for logs and plan descriptions, e.g.
// "bluestein[M=562500 mixed-radix[4 3 3 5 5 5 5 5 5]]".
func (bp *BluesteinPlan) String() string {
	return fmt.Sprintf("bluestein[M=%d %v]", bp.M, bp.Conv)
}

// Schedule returns the plan's pass list for the forward or inverse
// transform: the M-point forward convolution's stage passes (fused
// pairs included, MixedPlan.stages), then the M-point inverse's, with
// the chirp premultiply and zero padding on the
// first one's loads, the filter product on the last forward stage's
// stores, and the chirp postmultiply on the last one's stores, into
// the caller's N points. Per-radix codelets run them, not a kernel.
// The N-point inverse costs no pass either: the first stage conjugates
// what it loads, the last stores conj(y)·(1/N).
func (bp *BluesteinPlan) Schedule(inverse bool) *Schedule {
	if inverse {
		return bp.inv
	}
	return bp.fwd
}

// schedule builds one direction. The stages ping-pong between the two
// M-point halves of the work buffer: the forward's from the caller's
// array to half 0, the inverse's from there to the caller's array, its
// conj on its first stage's loads and its conj·1/M on its last stage's
// stores, before the chirp. No pass sweeps more than M points: M is the
// span.
func (bp *BluesteinPlan) schedule(inverse bool) *Schedule {
	m, mp := bp.M, bp.Conv
	h0 := func(st *State) []complex128 { return st.Work[:m] }
	h1 := func(st *State) []complex128 { return st.Work[m:] }
	fwd := stageEdge{conj: inverse, in: bp.Chirp, out: bp.BHat}
	inv := stageEdge{conj: true, scale: 1 / float64(m), out: bp.Chirp}
	if inverse {
		inv.post = 1 / float64(bp.N)
	}
	ps := append(mp.stages(onData, h0, h1, h0, fwd), mp.stages(h0, h0, h1, onData, inv)...)
	return &Schedule{N: bp.N, Stage: PassStageMixed, Passes: ps, work: 2 * m, span: m}
}

// Transform applies the forward DFT in place, serially. A wrong-length
// array is returned as an error wrapping ErrLengthMismatch.
func (bp *BluesteinPlan) Transform(data []complex128) error {
	return bp.fwd.Run(data)
}

// InverseTransform applies the inverse DFT in place via the conjugation
// identity.
func (bp *BluesteinPlan) InverseTransform(data []complex128) error {
	return bp.inv.Run(data)
}
