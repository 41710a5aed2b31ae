package main

import (
	"fmt"
	"math"
	"math/cmplx"
)

// tolerance is the verification bound: a difference of at most 1e-9 of
// the reference's peak magnitude.
const tolerance = 1e-9

// unitRoot returns e^{-2πi·m/n}. The angle is folded into the first
// octant before the libm call, so the absolute error stays below one
// ulp of 1 whatever m is — tighter than the tables under test, which is
// what lets fft.err_ulp.* use it as an oracle.
func unitRoot(m, n int) complex128 {
	m %= n
	if m < 0 {
		m += n
	}
	oct := 8 * m / n
	r := 8*m - oct*n
	if oct&1 == 1 {
		r = n - r
	}
	s, c := math.Sincos(math.Pi / 4 * (float64(r) / float64(n)))
	var cr, sr float64
	switch oct {
	case 0:
		cr, sr = c, s
	case 1:
		cr, sr = s, c
	case 2:
		cr, sr = -s, c
	case 3:
		cr, sr = -c, s
	case 4:
		cr, sr = -c, -s
	case 5:
		cr, sr = -s, -c
	case 6:
		cr, sr = s, -c
	default:
		cr, sr = c, -s
	}
	return complex(cr, -sr)
}

func rootTable(n int) []complex128 {
	w := make([]complex128, n)
	for m := range w {
		w[m] = unitRoot(m, n)
	}
	return w
}

// pickBins chooses count output bins of an n-point transform: the
// edges, the middle, and a coprime-stride walk over the rest.
func pickBins(n, count int) []int {
	if count >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	bins := []int{0, 1, n / 2, n - 1}
	seen := map[int]bool{0: true, 1: true, n / 2: true, n - 1: true}
	stride := n/count | 1
	for k := stride; len(bins) < count; k = (k + stride) % n {
		if !seen[k] {
			seen[k] = true
			bins = append(bins, k)
		}
	}
	return bins
}

// dftBins evaluates X[k] = Σ_j x[j]·e^{-2πi·jk/n} directly for the
// given bins, with w = rootTable(len(x)).
func dftBins(x, w []complex128, bins []int) []complex128 {
	n := len(x)
	out := make([]complex128, len(bins))
	for b, k := range bins {
		var sum complex128
		idx := 0
		for _, v := range x {
			sum += v * w[idx]
			if idx += k; idx >= n {
				idx -= n
			}
		}
		out[b] = sum
	}
	return out
}

// dd is a double-double accumulator (error-free product via FMA,
// two-sum addition), so the oracle's summation error is negligible
// next to the float64 transforms it judges.
type dd struct{ hi, lo float64 }

func (a *dd) addProd(x, y float64) {
	p := x * y
	e := math.FMA(x, y, -p)
	s := a.hi + p
	bb := s - a.hi
	a.lo += (a.hi - (s - bb)) + (p - bb) + e
	a.hi = s
}

func (a dd) value() float64 { return a.hi + a.lo }

// dftBinsExact is dftBins with double-double accumulation.
func dftBinsExact(x, w []complex128, bins []int) []complex128 {
	n := len(x)
	out := make([]complex128, len(bins))
	for b, k := range bins {
		var re, im dd
		idx := 0
		for _, v := range x {
			wr, wi := real(w[idx]), imag(w[idx])
			re.addProd(real(v), wr)
			re.addProd(-imag(v), wi)
			im.addProd(real(v), wi)
			im.addProd(imag(v), wr)
			if idx += k; idx >= n {
				idx -= n
			}
		}
		out[b] = complex(re.value(), im.value())
	}
	return out
}

func peak(x []complex128) float64 {
	var m float64
	for _, v := range x {
		m = max(m, cmplx.Abs(v))
	}
	return m
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i, v := range a {
		m = max(m, cmplx.Abs(v-b[i]))
	}
	return m
}

func maxDiffReal(a, b []float64) float64 {
	var m float64
	for i, v := range a {
		m = max(m, math.Abs(v-b[i]))
	}
	return m
}

// closeTo reports an error unless got matches want within tolerance of
// want's peak.
func closeTo(what string, got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, want %d", what, len(got), len(want))
	}
	if d, p := maxDiff(got, want), peak(want); !(d <= tolerance*p) {
		return fmt.Errorf("%s: off by %.3g against a peak of %.3g", what, d, p)
	}
	return nil
}

func closeToReal(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d samples, want %d", what, len(got), len(want))
	}
	var p float64
	for _, v := range want {
		p = max(p, math.Abs(v))
	}
	if d := maxDiffReal(got, want); !(d <= tolerance*p) {
		return fmt.Errorf("%s: off by %.3g against a peak of %.3g", what, d, p)
	}
	return nil
}

// binsCloseTo checks got[bins[i]] against want[i].
func binsCloseTo(what string, got []complex128, bins []int, want []complex128) error {
	var d float64
	for i, k := range bins {
		d = max(d, cmplx.Abs(got[k]-want[i]))
	}
	if p := peak(want); !(d <= tolerance*p) {
		return fmt.Errorf("%s: off by %.3g against a peak of %.3g", what, d, p)
	}
	return nil
}

// identical reports an error unless the slices are bitwise equal.
func identical(what string, got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(real(v)) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(v)) != math.Float64bits(imag(want[i])) {
			return fmt.Errorf("%s: element %d is %v, want %v bit for bit", what, i, v, want[i])
		}
	}
	return nil
}
