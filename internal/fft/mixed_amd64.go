//go:build amd64 && !noasm

package fft

import "math"

// vec runs the part of the rectangle p ∈ [p0, p1), q ∈ [q0, q1) of
// units that the AVX codelets in mixed_amd64.s cover, and returns the
// corner (p, q) of what is left for the Go codelets: the rectangle
// (p, p1) × (q, q1), empty when p = p1 or q = q1. With S ≥ 2 a codelet
// takes the q in pairs, two complex128 to a YMM register, one p after
// another with its twiddles broadcast, and leaves the odd q column;
// with S = 1 (the first stage) there is one q per p, so the radix-4
// codelet takes the p in pairs instead, with per-lane twiddles, and
// leaves an odd last p. Radix 7 and the other radices at S = 1 are left
// whole. The codelets need only AVX, and run where soaHasAsm found AVX2
// and FMA (they use no FMA: a fused product would change the bits).
func (st *MixedStage) vec(dst, src []complex128, p0, p1, q0, q1 int, e stageEdge) (int, int) {
	if !soaHasAsm || st.R == 7 {
		return p0, q0
	}
	neg := 0.0
	if e.conj {
		neg = math.Copysign(0, -1)
	}
	r, s, m := st.R, st.S, st.M
	if s == 1 {
		np := (p1 - p0) / 2
		if r != 4 || np == 0 {
			return p0, q0
		}
		pe := p0 + 2*np
		_, _, _ = src[pe-1+3*m], dst[4*pe-1], st.Tw[3*pe-1] // the codelet's last loads and store
		mixed4PairsAsm(&dst[4*p0], &src[p0], &st.Tw[3*p0], m, np, neg, e.scale)
		return pe, q0
	}
	nq := (q1 - q0) / 2
	if nq == 0 {
		return p0, q0
	}
	qe := q0 + 2*nq
	_, _, _ = src[s*(p1-1)+(r-1)*s*m+qe-1], dst[r*s*(p1-1)+(r-1)*s+qe-1], st.Tw[(r-1)*p1-1]
	d, x, tw, np := &dst[r*s*p0+q0], &src[s*p0+q0], &st.Tw[(r-1)*p0], p1-p0
	switch r {
	case 2:
		mixed2Asm(d, x, tw, s, s*m, np, nq, neg, e.scale)
	case 3:
		mixed3Asm(d, x, tw, s, s*m, np, nq, neg, e.scale)
	case 4:
		mixed4Asm(d, x, tw, s, s*m, np, nq, neg, e.scale)
	default:
		mixed5Asm(d, x, tw, s, s*m, np, nq, neg, e.scale)
	}
	return p0, qe
}

// Implemented in mixed_amd64.s. Each runs np rows p of nq pairs of q
// from the unit at dst, src and tw: row p + 1 starts S elements of src,
// R·S of dst and R − 1 twiddles further on; input lane c is S·M
// elements from lane 0, output lane d S. Inputs are XORed with
// (+0, neg) as they load; a nonzero scale stores conj(y)·scale.

//go:noescape
func mixed2Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64)

//go:noescape
func mixed3Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64)

//go:noescape
func mixed4Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64)

//go:noescape
func mixed5Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64)

// mixed4PairsAsm is the S = 1 radix-4 stage over np pairs of p: input
// lane c is m elements from lane 0, each p's four outputs are
// consecutive, and each lane of a register has its own twiddles.
//
//go:noescape
func mixed4PairsAsm(dst, src, tw *complex128, m, np int, neg, scale float64)
