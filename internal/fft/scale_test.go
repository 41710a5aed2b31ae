package fft

import "testing"

// Scale is the element loop twoLevelTable.scaleFrom replaced, kept as
// its oracle: it applies the four-step twiddle segment to one transformed
// column in place, col[k] *= ω_N^{index·k}. The exponent is reduced mod
// N, so any index is accepted.
func (t *twoLevelTable) Scale(col []complex128, index int) {
	idx := index % t.n
	if idx < 0 {
		idx += t.n
	}
	e := 0
	for k := range col {
		col[k] *= t.at(e)
		e += idx
		if e >= t.n {
			e -= t.n
		}
	}
}

// TestKernelBytesCountsStageTwiddles pins the count KernelBytes assumes:
// an n-point sub-plan holds n−1 stage twiddles.
func TestKernelBytesCountsStageTwiddles(t *testing.T) {
	for n := 2; n <= 1<<16; n *= 2 {
		got := 0
		for _, st := range factorOf(n).Stages {
			got += len(st.Tw)
		}
		if got != n-1 {
			t.Fatalf("n=%d: %d stage twiddles, KernelBytes counts %d", n, got, n-1)
		}
	}
}
