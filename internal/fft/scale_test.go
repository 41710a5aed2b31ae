package fft

// Scale is the element loop TwoLevelTable.ScaleFrom replaced, kept as
// its oracle: it applies the four-step twiddle segment to one transformed
// column in place, col[k] *= ω_N^{index·k}. The exponent is reduced mod
// N, so any index is accepted.
func (t *TwoLevelTable) Scale(col []complex128, index int) {
	idx := index % t.n
	if idx < 0 {
		idx += t.n
	}
	e := 0
	for k := range col {
		col[k] *= t.At(e)
		e += idx
		if e >= t.n {
			e -= t.n
		}
	}
}
