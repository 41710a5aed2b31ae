// Package fft implements the radix-2 decimation-in-time FFT decomposition
// used by the paper: a bit-reversal permutation followed by ⌈log2(N)/log2(P)⌉
// stages of P-point butterfly tasks (P = 64 in the paper's sweet spot).
//
// The package is pure math — it knows element indices, twiddle indices,
// task shapes and dependence structure, but nothing about machines or
// scheduling. Packages core and codelet assemble it onto the simulated
// Cyclops-64.
package fft

import (
	"math"
	"math/bits"
)

// Twiddles returns the forward twiddle table W[i] = exp(-2πi·i/n) for
// i in [0, n/2). n must be a power of two ≥ 2.
func Twiddles(n int) []complex128 {
	if n < 2 || n&(n-1) != 0 {
		panic("fft: table size must be a power of two ≥ 2")
	}
	return twiddleTable(n, n/2)
}

// TwiddlesAny returns the full forward twiddle table W[i] = exp(-2πi·i/n)
// for i in [0, n), any n ≥ 1 — the general-modulus companion to Twiddles
// for four-step scaling when totalN is not a power of two (TwiddleScaleAny).
func TwiddlesAny(n int) []complex128 {
	if n < 1 {
		panic("fft: table size must be ≥ 1")
	}
	return twiddleTable(n, n)
}

// twiddleTable returns the first count entries of the modulus-n table;
// every table in the package is a prefix of this one expression.
func twiddleTable(n, count int) []complex128 {
	w := make([]complex128, count)
	for i := range w {
		ang := -2 * math.Pi * float64(i) / float64(n)
		w[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	return w
}

// TwiddleScaleAny is TwiddleScale for any modulus: col[k] *= ω_totalN^{index·k}
// with w = TwiddlesAny(totalN). The exponent is reduced mod totalN, so
// any index is accepted.
func TwiddleScaleAny(col, w []complex128, index, totalN int) {
	if len(w) != totalN {
		panic(LengthError("twiddle table", len(w), totalN))
	}
	idx := index % totalN
	if idx < 0 {
		idx += totalN
	}
	e := 0
	for k := range col {
		col[k] *= w[e]
		e += idx
		if e >= totalN {
			e -= totalN
		}
	}
}

// BitReverse reverses the low `width` bits of x. It is the hash function
// the paper uses to randomize twiddle addresses across DRAM banks
// (section IV-B); C64 exposes it as a hardware instruction.
func BitReverse(x int64, width int) int64 {
	if width < 0 || width > 63 {
		panic("fft: bit width out of range")
	}
	if width == 0 {
		return 0
	}
	return int64(bits.Reverse64(uint64(x)) >> (64 - uint(width)))
}

// HashTwiddles returns the bit-reversal-permuted copy of w used by the
// hash variants: out[BitReverse(i)] = w[i]. len(w) must be a power of two.
func HashTwiddles(w []complex128) []complex128 {
	n := len(w)
	if n == 0 || n&(n-1) != 0 {
		panic("fft: twiddle table length must be a power of two")
	}
	width := bits.TrailingZeros(uint(n))
	out := make([]complex128, n)
	for i := range w {
		out[BitReverse(int64(i), width)] = w[i]
	}
	return out
}

// BitReversePermute reorders data in place so that element i moves to
// position BitReverse(i). len(data) must be a power of two.
func BitReversePermute(data []complex128) {
	n := len(data)
	if n == 0 || n&(n-1) != 0 {
		panic("fft: data length must be a power of two")
	}
	bitReverseRange(data, 0, n, bits.TrailingZeros(uint(n)))
}

// bitReverseRange performs the swaps of the bit-reversal permutation
// whose smaller index lies in [lo, hi). Every swap pair {i,
// BitReverse(i)} belongs to exactly one such index, so disjoint ranges
// touch disjoint elements.
func bitReverseRange(data []complex128, lo, hi, width int) {
	for i := lo; i < hi; i++ {
		j := int(BitReverse(int64(i), width))
		if j > i {
			data[i], data[j] = data[j], data[i]
		}
	}
}

// Log2 returns log2(n) for a power of two n, or -1 otherwise.
func Log2(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(n))
}
