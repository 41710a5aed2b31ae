package main

import "math/rand/v2"

// newRNG derives an independent stream from the run's seed; the seed
// sets the input values and nothing the program sees besides them.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func fillComplex(r *rand.Rand, dst []complex128) {
	for i := range dst {
		dst[i] = complex(2*r.Float64()-1, 2*r.Float64()-1)
	}
}

func fillReal(r *rand.Rand, dst []float64) {
	for i := range dst {
		dst[i] = 2*r.Float64() - 1
	}
}

func randomComplex(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	fillComplex(r, v)
	return v
}

func randomRows(r *rand.Rand, rows, n int) [][]complex128 {
	flat := randomComplex(r, rows*n)
	out := make([][]complex128, rows)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

func cloneRows(src [][]complex128) [][]complex128 {
	n := len(src[0])
	flat := make([]complex128, len(src)*n)
	out := make([][]complex128, len(src))
	for i, row := range src {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
		copy(out[i], row)
	}
	return out
}
