package fft

// Hann returns the length-n periodic Hann window
// w[i] = 0.5·(1 − cos(2πi/n)). The periodic form (denominator n, not
// n−1) is the spectrogram convention: shifted copies at hop n/2 sum to
// exactly 1 — the constant-overlap-add property STFT reconstruction
// relies on. For n < 1 it returns nil.
func Hann(n int) []float64 {
	if n < 1 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 * (1 - rootCos(i, n))
	}
	return w
}
