package fft

import "math"

// DFT computes the discrete Fourier transform of x directly in O(n²).
// It is the ground truth the staged decomposition is tested against.
// Any length is accepted.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	full := make([]complex128, n)
	for k := 0; k < n; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		full[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			sum += x[t] * full[(k*t)%n]
		}
		out[k] = sum
	}
	return out
}

// Recursive computes the FFT of x (power-of-two length) with the textbook
// recursive Cooley-Tukey algorithm — an independent implementation used
// to cross-check the staged plan at sizes where the O(n²) DFT is too slow.
func Recursive(x []complex128) []complex128 {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic("fft: Recursive requires a power-of-two length")
	}
	out := make([]complex128, n)
	copy(out, x)
	w := Twiddles(max(n, 2))
	recurse(out, make([]complex128, n), w, n)
	return out
}

func recurse(x, scratch, w []complex128, root int) {
	n := len(x)
	if n == 1 {
		return
	}
	half := n / 2
	for i := 0; i < half; i++ {
		scratch[i] = x[2*i]
		scratch[half+i] = x[2*i+1]
	}
	copy(x, scratch)
	recurse(x[:half], scratch[:half], w, root)
	recurse(x[half:], scratch[half:], w, root)
	step := root / n
	for k := 0; k < half; k++ {
		t := w[k*step] * x[half+k]
		u := x[k]
		x[k] = u + t
		x[half+k] = u - t
	}
}

// MaxError returns the largest element-wise absolute difference between a
// and b, which must have equal length.
func MaxError(a, b []complex128) float64 {
	if len(a) != len(b) {
		panic("fft: length mismatch")
	}
	var maxErr float64
	for i := range a {
		d := a[i] - b[i]
		re, im := real(d), imag(d)
		if re < 0 {
			re = -re
		}
		if im < 0 {
			im = -im
		}
		if re > maxErr {
			maxErr = re
		}
		if im > maxErr {
			maxErr = im
		}
	}
	return maxErr
}
