package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of v by linear
// interpolation between order statistics. v need not be sorted and is
// left untouched; an empty v yields NaN.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// pseudoMedian is the Hodges–Lehmann location estimate: the median of
// the means of all pairs (a value paired with itself included). On a
// single-peaked sample it agrees with the median; on a two-peaked one —
// ooc_spill's ops take about 150 or about 190 ms — it stays between the
// peaks where the plain median jumps from one to the other as their
// shares drift around a half.
func pseudoMedian(v []float64) float64 {
	pairs := make([]float64, 0, len(v)*(len(v)+1)/2)
	for i, a := range v {
		for _, b := range v[i:] {
			pairs = append(pairs, (a+b)/2)
		}
	}
	return median(pairs)
}

// pyQuartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method) — the rule the acceptance pipeline uses
// for run-to-run spread, so -aa reports the number it will see.
func pyQuartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := pyQuartiles(v)
	return (q3 - q1) / math.Abs(q2)
}

// roundRatios divides each round's median op time by that round's
// calibration time: the per-round numbers op_rel_p50 is the
// pseudo-median of.
// Rounds without ops are skipped.
func roundRatios(opNs [][]float64, calibNs []float64) []float64 {
	out := make([]float64, 0, len(opNs))
	for r, ops := range opNs {
		if len(ops) == 0 || calibNs[r] <= 0 {
			continue
		}
		out = append(out, median(ops)/calibNs[r])
	}
	return out
}
