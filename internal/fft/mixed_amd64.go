//go:build amd64 && !noasm

package fft

import "math"

// vec runs the rectangle p ∈ [p0, p1), q ∈ [q0, q1) of the pass's
// units on the AVX codelets in mixed_amd64.s, or reports false, having
// run nothing, where they do not cover the pass. A fused pair runs on
// the pair codelets (mixed33Asm … mixed55Asm), the q in pairs, and as
// the last pass with the store edges and in place. A single
// stage with S ≥ 2 runs on the q-pair codelets: two complex128 to a YMM
// register, one p after another with its twiddles broadcast, and with
// M = 1 an output operand; with S = 1 (the first stage) the radix-4
// codelet takes pairs of p, with per-lane twiddles, and carries an
// input operand. A call keeps each lane wholly inside or outside the
// operand, so the pairs are cut where a lane crosses its end. An odd
// unit left over runs in Go (scalar). The codelets need only AVX, and
// run where soaHasAsm found AVX2 and FMA (they use no FMA: a fused
// product would change the bits).
func (ps mixedPass) vec(dst, src []complex128, p0, p1, q0, q1 int) bool {
	st, e := &ps.st[0], ps.e
	r, s, m := st.R, st.S, st.M
	if len(ps.st) == 2 {
		if !hasPairCodelet(r) {
			return false
		}
		b := &ps.st[1]
		// Output row j < r² of unit (p, q) is dst[r²·S·p + q + S·j]. With
		// an output operand (M = 1, p = 0) rows j < live store, and the q
		// are cut where a row crosses the operand's end.
		for x := q0; x < q1; {
			live, end := r*r, q1
			if e.out != nil {
				live = min(r*r, max(0, len(e.out)-x+s-1)/s)
				end = min(end, len(e.out)-s*(live-1))
			}
			if live == 0 {
				break // no unit from here on stores anything
			}
			if xe := x + (end-x)&^1; xe > x {
				var v *complex128
				if e.out != nil {
					_, v = e.out[s*(live-1)+xe-1], &e.out[x]
				}
				// The last unit's last load and store, and the last twiddles.
				_, _ = src[s*(p1-1)+s*b.M*(r*r-1)+xe-1], dst[r*r*s*(p1-1)+s*(live-1)+xe-1]
				_, _ = st.Tw[(r-1)*(p1-1+b.M*(r-1))+r-2], b.Tw[(r-1)*p1-1]
				fusedCodelets[r](&dst[r*r*s*p0+x], &src[s*p0+x], &st.Tw[(r-1)*p0], &b.Tw[(r-1)*p0], s, b.M, p1-p0, (xe-x)/2, e.scale, v, live, e.post)
				x = xe
			}
			if x < end {
				ps.scalar(dst, src, p0, p1, x, end)
			}
			x = end
		}
		return true
	}
	if !soaHasAsm || r == 7 || s == 1 && (r != 4 || e.out != nil) || s > 1 && (e.in != nil || e.out != nil && m > 1) {
		return false
	}
	neg := 0.0
	if e.conj {
		neg = math.Copysign(0, -1)
	}
	// x walks the paired dimension; lane c of the operand is at x + stride·c.
	x, x1, op, stride := q0, q1, e.out, s
	if s == 1 {
		x, x1, op, stride = p0, p1, e.in, m
	}
	for x < x1 {
		live, end := r, x1
		if op != nil { // lanes below len(op) at x, to where the last ends (x1 if none: x < stride)
			live = min(r, max(0, len(op)-x+stride-1)/stride)
			end = min(end, len(op)-stride*(live-1))
		}
		if live == 0 && s > 1 {
			break // an output operand's: no unit from here on stores anything
		}
		xe := x + (end-x)&^1 // the pairs; all-zero inputs run in Go
		if live == 0 || xe == x {
			xe = x
		} else if s == 1 {
			last := xe - 1 + (live-1)*m // the codelet's last load
			var v *complex128
			if e.in != nil {
				_, v = e.in[last], &e.in[x]
			}
			_, _, _ = src[last], dst[4*xe-1], st.Tw[3*xe-1]
			mixed4PairsAsm(&dst[4*x], &src[x], &st.Tw[3*x], m, (xe-x)/2, neg, e.scale, v, live)
		} else {
			var v *complex128
			if e.out != nil {
				_, v = e.out[(live-1)*s+xe-1], &e.out[x]
			}
			_, _, _ = src[s*(p1-1)+(r-1)*s*m+xe-1], dst[r*s*(p1-1)+(live-1)*s+xe-1], st.Tw[(r-1)*p1-1]
			pairCodelets[r](&dst[r*s*p0+x], &src[s*p0+x], &st.Tw[(r-1)*p0], s, s*m, p1-p0, (xe-x)/2, neg, e.scale, v, live, e.post)
		}
		if xe < end && s == 1 { // an odd unit, or a run with no lane live
			ps.scalar(dst, src, xe, end, q0, q1)
		} else if xe < end {
			ps.scalar(dst, src, p0, p1, xe, end)
		}
		x = end
	}
	return true
}

var pairCodelets = [...]func(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64){
	2: mixed2Asm, 3: mixed3Asm, 4: mixed4Asm, 5: mixed5Asm,
}

// Implemented in mixed_amd64.s. Each runs np rows p of nq pairs of q
// from the unit at dst, src and tw: row p + 1 starts S elements of src,
// R·S of dst and R − 1 twiddles further on; input lane c is S·M
// elements from lane 0, output lane d S. Inputs are XORed with
// (+0, neg) as they load; a nonzero scale stores conj(y)·scale. With
// an output operand v (laid out as dst) lanes d < live store y·v,
// conj·post-scaled when post is nonzero, and the others nothing.

//go:noescape
func mixed2Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64)

//go:noescape
func mixed3Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64)

//go:noescape
func mixed4Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64)

//go:noescape
func mixed5Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64)

// mixed4PairsAsm is the S = 1 radix-4 stage over np pairs of p: input
// lane c is m elements from lane 0, each p's four outputs are
// consecutive, and each lane of a register has its own twiddles. A
// non-nil v is an input operand, laid out as src: lanes c < live (≥ 1)
// load x·v, x XORed with (+0, neg) first, and the others +0, unread.
//
//go:noescape
func mixed4PairsAsm(dst, src, tw *complex128, m, np int, neg, scale float64, v *complex128, live int)

// hasPairCodelet reports whether a fused pair of radix r runs on a
// vector pair codelet here: radix 3, 4 or 5 where soaHasAsm.
func hasPairCodelet(r int) bool { return soaHasAsm && r >= 3 && r <= 5 }

var fusedCodelets = [...]func(dst, src, twa, twb *complex128, s, m, np, nq int, scale float64, v *complex128, live int, post float64){
	3: mixed33Asm, 4: mixed44Asm, 5: mixed55Asm,
}

// Implemented in mixed_amd64.s. Each runs np rows p of nq pairs of q of
// a fused pair's units (mixedPass) of radix r from the unit at dst,
// src, twa and twb (its stages' twiddles at the row): row p + 1 starts
// S elements of src, r²·S of dst and r − 1 twiddles of each further on.
// With m the second stage's M, the fused unit's stage-a row c' is S·m
// elements of src and (r − 1)·m twiddles from row 0, its input lane c
// r·S·m; its output (d, d') is row j = d + r·d', S·j elements from dst.
// A last pair (m = 1, np = 1) carries the store edges as the q-pair
// codelets do: a nonzero scale stores conj(y)·scale; with an output
// operand v (laid out as dst) rows j < live store y·v, conj·post-scaled
// when post is nonzero, and the others nothing. live is r² without one.
// Each chunk of q loads all its inputs before it stores, so dst may be
// src.

//go:noescape
func mixed33Asm(dst, src, twa, twb *complex128, s, m, np, nq int, scale float64, v *complex128, live int, post float64)

//go:noescape
func mixed44Asm(dst, src, twa, twb *complex128, s, m, np, nq int, scale float64, v *complex128, live int, post float64)

//go:noescape
func mixed55Asm(dst, src, twa, twb *complex128, s, m, np, nq int, scale float64, v *complex128, live int, post float64)
