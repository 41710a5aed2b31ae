// Bluestein (chirp-z) planning: an arbitrary-N DFT as a circular
// convolution of power-of-two length, covering the lengths the
// mixed-radix planner cannot — anything with a prime factor outside
// {2, 3, 5, 7}. With the chirp c[t] = exp(-iπ·t²/N), the identity
// t·k = (t² + k² - (k-t)²)/2 rewrites the DFT as
//
//	X[k] = c[k] · Σ_t (x[t]·c[t]) · conj(c[k-t])
//
// — a linear convolution of the chirp-premultiplied input with the
// conjugate chirp, embedded in a circular convolution of length
// M = 2^⌈log2(2N-1)⌉ and executed by the staged power-of-two plan's
// passes nested on the work buffer (so the kernel family and the
// parallel engine apply to the heavy lifting unchanged). The
// filter's spectrum is fixed per plan and precomputed once.
package fft

import (
	"fmt"
	"math"
)

// BluesteinPlan computes N-point DFTs for any N ≥ 1 via the chirp-z
// embedding. It is immutable after construction and safe for concurrent
// use on distinct buffers.
type BluesteinPlan struct {
	N int // transform length
	M int // convolution length: the smallest power of two ≥ max(2N-1, 2)

	// Conv is the staged M-point plan executing the embedded
	// convolution and WConv its twiddle table; the host engine runs
	// them with the caller's kernel choice.
	Conv  *Plan
	WConv []complex128

	// Chirp[t] = exp(-iπ·t²/N) for t ∈ [0, N) — the pre- and
	// post-multiplier. The squared index is reduced mod 2N in integer
	// arithmetic before the angle is formed, so the chirp stays
	// accurate at large t.
	Chirp []complex128

	// BHat is the forward M-point FFT of the wrapped conjugate-chirp
	// filter b (b[t] = conj(Chirp[t]), mirrored into b[M-t]).
	BHat []complex128

	sched schedCache // Schedule's memo
}

// BluesteinLen returns the convolution length M of the n-point chirp-z
// plan: the smallest power of two ≥ max(2n-1, 2).
func BluesteinLen(n int) int {
	m := 2
	for m < 2*n-1 {
		m <<= 1
	}
	return m
}

// NewBluesteinPlan builds the chirp-z plan for n-point transforms. It
// errors, wrapping ErrUnsupportedLength, only for n < 1.
func NewBluesteinPlan(n int) (*BluesteinPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: bluestein plan needs n ≥ 1, got %d", ErrUnsupportedLength, n)
	}
	m := BluesteinLen(n)
	conv, err := NewPlan(m, min(64, m))
	if err != nil {
		return nil, err
	}
	w := Twiddles(m)

	chirp := make([]complex128, n)
	for t := 0; t < n; t++ {
		e := int64(t) * int64(t) % int64(2*n)
		ang := -math.Pi * float64(e) / float64(n)
		chirp[t] = complex(math.Cos(ang), math.Sin(ang))
	}

	b := make([]complex128, m)
	b[0] = 1 // conj(chirp[0])
	for t := 1; t < n; t++ {
		c := complex(real(chirp[t]), -imag(chirp[t]))
		b[t] = c
		b[m-t] = c
	}
	conv.Transform(b, w)

	return &BluesteinPlan{N: n, M: m, Conv: conv, WConv: w, Chirp: chirp, BHat: b}, nil
}

// String names the plan for logs and plan descriptions.
func (bp *BluesteinPlan) String() string {
	return fmt.Sprintf("bluestein[M=%d]", bp.M)
}

// Schedule returns the plan's pass list under kern — the kernel of the
// embedded convolution — for the forward or inverse transform, building
// it on first use: chirp-premultiply and zero-pad into the work buffer,
// the M-point forward schedule on it, the pointwise product with the
// filter spectrum, the M-point inverse schedule, and the chirp
// postmultiply back into the caller's array; the N-point inverse
// brackets all of that with the conjugation identity's two sweeps.
func (bp *BluesteinPlan) Schedule(kern Kernel, inverse bool) *Schedule {
	return bp.sched.get(kern, inverse, bp.schedule)
}

func (bp *BluesteinPlan) schedule(kern Kernel, inverse bool) *Schedule {
	n, m := bp.N, bp.M
	ps := []Pass{{PassChirp, m, func(st *State, lo, hi int) {
		for t := lo; t < min(hi, n); t++ {
			st.Work[t] = st.Data[t] * bp.Chirp[t]
		}
		for t := max(lo, n); t < hi; t++ {
			st.Work[t] = 0
		}
	}}}
	ps = append(ps, bp.Conv.passes(bp.WConv, kern, false, onWork)...)
	ps = append(ps, Pass{PassChirp, m, func(st *State, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.Work[i] *= bp.BHat[i]
		}
	}})
	ps = append(ps, bp.Conv.passes(bp.WConv, kern, true, onWork)...)
	ps = append(ps, Pass{PassChirp, n, func(st *State, lo, hi int) {
		for k := lo; k < hi; k++ {
			st.Data[k] = st.Work[k] * bp.Chirp[k]
		}
	}})
	if inverse {
		ps = inverted(ps, onData, n)
	}
	return &Schedule{N: n, Stage: StageLabel(kern), Passes: ps, frame: bp.Conv.frameLen(kern), work: m}
}

// Transform applies the forward DFT in place, serially, with the
// radix-2 convolution.
func (bp *BluesteinPlan) Transform(data []complex128) {
	bp.Schedule(KernelRadix2, false).Run(data)
}

// InverseTransform applies the inverse DFT in place via the conjugation
// identity.
func (bp *BluesteinPlan) InverseTransform(data []complex128) {
	bp.Schedule(KernelRadix2, true).Run(data)
}
