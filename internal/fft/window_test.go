package fft

import (
	"math"
	"testing"
)

// TestHannMatchesRoot pins Hann's cosine to the real part of the twiddle
// root bit for bit: over every index of small windows, the STFT frame
// lengths and a large one, 0.5·(1 − real(ω_n^i)) is what Hann returns.
func TestHannMatchesRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 8, 12, 100, 255, 256, 1000, 1024, 4096, 1 << 16, 1<<16 + 1, 1 << 20} {
		w := Hann(n)
		for i, v := range w {
			if want := 0.5 * (1 - real(root(i, n))); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("n=%d i=%d: Hann %v, root gives %v", n, i, v, want)
			}
		}
	}
}
