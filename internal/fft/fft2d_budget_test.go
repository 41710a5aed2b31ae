package fft_test

import (
	"fmt"
	"testing"

	"codeletfft"
)

// TestHostPlan2DErrorBudget holds the facade's default 2-D plan and
// the plans pinned to each kernel to 2·ε·log₂(rows·cols)
// (holdErrBudget), forward and inverse. The oracle is separable: bin
// (k1, k2) is the double-double DFT at k1 of the rows' double-double
// DFTs at k2, on a grid of six sampled bins per axis (all of them on a
// shorter axis). 97×60's columns run Bluestein; 1×64 and 64×1 are 1-D
// transforms with a one-point axis. The worst measured is 8.97 ε
// against 25.0 at 97×60; at the powers of two, 8.13 against 40 at 1024²
// (noasm) and 5.72 or less below.
func TestHostPlan2DErrorBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("no shared state to race on; the instrumented oracle takes ten times as long")
	}
	check := func(rows, cols int) {
		t.Helper()
		n := rows * cols
		x := randSignal(n, int64(n+rows))
		k1s, k2s := sampleBins(rows, 6, int64(rows)), sampleBins(cols, 6, int64(cols))
		hiR, loR := ddTwiddles(rows)
		hiC, loC := ddTwiddles(cols)
		atK2 := make([][]complex128, len(k2s)) // atK2[j][r]: row r's bin k2s[j]
		for j := range atK2 {
			atK2[j] = make([]complex128, rows)
		}
		for r := range rows {
			for j, v := range dftBinsExact(x[r*cols:(r+1)*cols], hiC, loC, k2s) {
				atK2[j][r] = v
			}
		}
		var picked, negated []int
		var want []complex128
		for j, k2 := range k2s {
			for i, v := range dftBinsExact(atK2[j], hiR, loR, k1s) {
				k1 := k1s[i]
				picked = append(picked, k1*cols+k2)
				negated = append(negated, (rows-k1)%rows*cols+(cols-k2)%cols)
				want = append(want, v)
			}
		}
		var paths []budgetPath
		for _, k := range append([]codeletfft.Kernel{codeletfft.KernelAuto}, codeletfft.Kernels()...) {
			h, err := codeletfft.NewHostPlan2D(rows, cols, codeletfft.WithWorkers(1), codeletfft.WithKernel(k))
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, budgetPath{k.String(), h.Transform, h.Inverse})
		}
		holdErrBudget(t, fmt.Sprintf("%dx%d", rows, cols), x, picked, negated, want, n, paths...)
	}
	for _, sh := range [][2]int{{64, 128}, {256, 64}, {8, 256}, {1024, 1024}, {480, 640}, {97, 60}, {1, 64}, {64, 1}} {
		check(sh[0], sh[1])
	}
}
