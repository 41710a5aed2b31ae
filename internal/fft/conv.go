// Overlap-save convolution geometry. The workloads users actually bring
// — FIR filtering, correlation, spectrograms — are convolutions, and a
// naive "FFT, multiply, IFFT" over the whole signal round-trips every
// sample through memory three times at a transform length that must
// cover the entire output. Overlap-save instead tiles the output into
// segments of a small, fixed FFT length M: each segment's transform
// reads M = S + K - 1 input samples (S fresh, K-1 overlapped from its
// left neighbour), multiplies by the kernel's precomputed M-point
// spectrum, and inverse-transforms, keeping the working set bounded by
// the segment group rather than the signal — the memory-frugal shape
// the paper's load-balance thesis asks for, applied to convolution.
//
// This file holds the pure geometry — segment sizing, gather/scatter
// index math, the kernel-spectrum layout, and the O(N·K) reference —
// while the facade (codeletfft.ConvPlan) dispatches the segment FFTs
// through the batched host engine.
package fft

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// smoothTable lists every 7-smooth number (2^a·3^b·5^c·7^d) up to
// smoothCap in ascending order — the lengths the mixed-radix planner
// runs natively, so a segment length drawn from it never needs the
// Bluestein embedding. Built once on first use (~3.8k entries). The cap
// is 2^31 where an int can hold it and the largest int elsewhere — a
// length past that cannot index a slice anyway.
const smoothCap = min(1<<31, math.MaxInt)

var (
	smoothOnce sync.Once
	smoothTab  []int
)

func buildSmoothTable() {
	var tab []int
	for p2 := 1; p2 <= smoothCap; p2 *= 2 {
		for p3 := p2; p3 <= smoothCap; p3 *= 3 {
			for p5 := p3; p5 <= smoothCap; p5 *= 5 {
				for p7 := p5; p7 <= smoothCap; p7 *= 7 {
					tab = append(tab, p7)
					if p7 > smoothCap/7 {
						break
					}
				}
				if p5 > smoothCap/5 {
					break
				}
			}
			if p3 > smoothCap/3 {
				break
			}
		}
		if p2 > smoothCap/2 {
			break
		}
	}
	sort.Ints(tab)
	smoothTab = tab
}

// NextSmooth returns the smallest 7-smooth integer ≥ n — the cheapest
// transform length at or above n under the mixed-radix planner. For n
// beyond the table's range it falls back to the next power of two.
func NextSmooth(n int) int {
	if n <= 1 {
		return 1
	}
	smoothOnce.Do(buildSmoothTable)
	i := sort.SearchInts(smoothTab, n)
	if i < len(smoothTab) {
		return smoothTab[i]
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ConvSpec is the overlap-save segmentation of a linear convolution:
// an N-sample signal against a K-tap kernel, tiled into Segs segments
// of FFT length M, each producing S = M-K+1 fresh output samples. The
// full linear convolution has OutLen = N+K-1 samples.
type ConvSpec struct {
	N int // signal length
	K int // kernel length
	M int // segment FFT length (7-smooth)
	S int // fresh samples per segment: M - K + 1
	// Segs tiles the OutLen outputs: ⌈(N+K-1)/S⌉.
	Segs int
}

// minSegment is the floor on the segment FFT length: below it, per-
// segment dispatch overhead dominates the butterfly work.
const minSegment = 256

// NewConvSpec sizes the overlap-save segmentation for an n-sample
// signal and a k-tap kernel, n ≥ 1 and k ≥ 1 (errors wrap
// ErrUnsupportedLength otherwise). The segment length is the smallest
// 7-smooth M ≥ max(4k, minSegment) — about 4 kernel lengths, the
// classic throughput sweet spot, so at least 3/4 of every segment's
// outputs are fresh — unless a single segment covering the whole
// output is no larger, in which case the convolution collapses to one
// full-length transform pair.
func NewConvSpec(n, k int) (ConvSpec, error) {
	if n < 1 {
		return ConvSpec{}, fmt.Errorf("%w: convolution needs a signal length ≥ 1, got %d", ErrUnsupportedLength, n)
	}
	if k < 1 {
		return ConvSpec{}, fmt.Errorf("%w: convolution needs a kernel length ≥ 1, got %d", ErrUnsupportedLength, k)
	}
	out := n + k - 1
	full := NextSmooth(out)
	m := NextSmooth(max(4*k, minSegment))
	if m >= full {
		m = full
	}
	s := m - k + 1
	return ConvSpec{N: n, K: k, M: m, S: s, Segs: (out + s - 1) / s}, nil
}

// OutLen returns the linear convolution's output length, N+K-1.
func (c ConvSpec) OutLen() int { return c.N + c.K - 1 }

// Gather fills the M-element segment buffer for segment seg: input
// samples x[seg·S-(K-1) … seg·S-(K-1)+M), with positions outside
// [0, N) taken as zero. The first K-1 positions are the overlap with
// the previous segment; their circularly-contaminated outputs are
// discarded by Scatter.
func (c ConvSpec) Gather(seg int, dst, x []complex128) {
	if len(dst) != c.M {
		panic(LengthError("segment buffer", len(dst), c.M))
	}
	if len(x) != c.N {
		panic(LengthError("signal", len(x), c.N))
	}
	start := seg*c.S - (c.K - 1)
	lo := max(start, 0)
	hi := min(start+c.M, c.N)
	for j := start; j < lo; j++ {
		dst[j-start] = 0
	}
	if hi > lo {
		copy(dst[lo-start:], x[lo:hi])
	}
	for j := max(hi, start); j < start+c.M; j++ {
		dst[j-start] = 0
	}
}

// Scatter copies segment seg's fresh outputs — positions K-1 … M-1 of
// the inverse-transformed segment buffer, the ones free of circular
// contamination — into dst[seg·S : min(seg·S+S, OutLen)].
func (c ConvSpec) Scatter(seg int, dst, work []complex128) {
	if len(work) != c.M {
		panic(LengthError("segment buffer", len(work), c.M))
	}
	if len(dst) != c.OutLen() {
		panic(LengthError("convolution output", len(dst), c.OutLen()))
	}
	lo := seg * c.S
	cnt := min(c.S, c.OutLen()-lo)
	copy(dst[lo:lo+cnt], work[c.K-1:c.K-1+cnt])
}

// PadKernel writes the K-tap kernel h into the M-element buffer dst
// (kernel first, zeros after) — the layout whose forward M-point
// transform is the cached segment filter spectrum.
func (c ConvSpec) PadKernel(dst, h []complex128) {
	if len(dst) != c.M {
		panic(LengthError("kernel buffer", len(dst), c.M))
	}
	if len(h) != c.K {
		panic(LengthError("kernel", len(h), c.K))
	}
	copy(dst, h)
	for i := c.K; i < c.M; i++ {
		dst[i] = 0
	}
}

// PadKernelReversed writes conj(h[K-1-t]) into dst — the kernel layout
// that turns the convolution machinery into cross-correlation:
// convolving x with the conjugated reversal of h yields
// dst[K-1+ℓ] = Σ_j x[j]·conj(h[j-ℓ]) for lags ℓ ∈ [-(K-1), N).
func (c ConvSpec) PadKernelReversed(dst, h []complex128) {
	if len(dst) != c.M {
		panic(LengthError("kernel buffer", len(dst), c.M))
	}
	if len(h) != c.K {
		panic(LengthError("kernel", len(h), c.K))
	}
	for t := 0; t < c.K; t++ {
		v := h[c.K-1-t]
		dst[t] = complex(real(v), -imag(v))
	}
	for i := c.K; i < c.M; i++ {
		dst[i] = 0
	}
}

// DirectConvolve computes the linear convolution dst[i] = Σ_j x[j]·h[i-j]
// directly in O(N·K) — the ground-truth reference for the overlap-save
// path. dst must have length len(x)+len(h)-1.
func DirectConvolve(dst, x, h []complex128) {
	if len(dst) != len(x)+len(h)-1 {
		panic(LengthError("convolution output", len(dst), len(x)+len(h)-1))
	}
	for i := range dst {
		dst[i] = 0
	}
	for j, xv := range x {
		for t, hv := range h {
			dst[j+t] += xv * hv
		}
	}
}
