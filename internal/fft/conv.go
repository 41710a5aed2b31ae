// Overlap-save convolution geometry. The workloads users actually bring
// — FIR filtering, correlation, spectrograms — are convolutions, and a
// naive "FFT, multiply, IFFT" over the whole signal round-trips every
// sample through memory three times at a transform length that must
// cover the entire output. Overlap-save instead tiles the output into
// segments of a small, fixed FFT length M: each segment's transform
// reads M = S + K - 1 input samples (S fresh, K-1 overlapped from its
// left neighbour), multiplies by the kernel's precomputed M-point
// spectrum, and inverse-transforms, keeping the working set bounded by
// one segment buffer per running segment rather than the signal — the
// memory-frugal shape the paper's load-balance thesis asks for, applied
// to convolution.
//
// This file holds the pure geometry — segment sizing, gather/scatter
// index math, the kernel-spectrum layout, and the O(N·K) reference —
// and Filter, the one schedule a segment runs, while the facade
// (codeletfft.ConvPlan) runs the segments as the units of a pass on the
// host engine. The geometry checks no buffer lengths: the facade
// validates the caller's at its entry, and the segment buffers are its
// own.
package fft

import (
	"fmt"
	"math"
	"slices"
)

// ConvSpec is the overlap-save segmentation of a linear convolution:
// an N-sample signal against a K-tap kernel, tiled into Segs segments
// of FFT length M, each producing S = M-K+1 fresh output samples. The
// full linear convolution has OutLen = N+K-1 samples.
type ConvSpec struct {
	N int // signal length
	K int // kernel length
	M int // segment FFT length: a power of two or a {2,3,5}-smooth multiple of 4
	S int // fresh samples per segment: M - K + 1
	// Segs tiles the OutLen outputs: ⌈(N+K-1)/S⌉.
	Segs int
}

// minSegment is the floor on the segment FFT length: below it, per-
// segment dispatch overhead dominates the butterfly work.
const minSegment = 256

// convMaxM is the largest segment length NewConvSpec sizes: the byte
// length of an M-point complex buffer still fits an int.
const convMaxM = math.MaxInt / 16

// NewConvSpec sizes the overlap-save segmentation for an n-sample
// signal and a k-tap kernel, n ≥ 1 and k ≥ 1 (errors wrap
// ErrUnsupportedLength otherwise). The segment length M is
// transformLen(max(4k, minSegment)), Bluestein's rule for its
// convolution length: the cheapest {2,3,5}-smooth multiple of 4 up to
// the next power of two, so every segment runs on the vector stages.
// That is about 4 kernel lengths, the classic throughput sweet spot, so
// at least 3/4 of every segment's outputs are fresh — unless a single
// segment covering the whole output, transformLen(n+k-1), is no larger,
// in which case the convolution collapses to one full-length transform
// pair. A shape whose n+k-1 or 4k overflows an int, whose output's
// power of two does, or whose M exceeds convMaxM errors the same way.
func NewConvSpec(n, k int) (ConvSpec, error) {
	if n < 1 {
		return ConvSpec{}, fmt.Errorf("%w: convolution needs a signal length ≥ 1, got %d", ErrUnsupportedLength, n)
	}
	if k < 1 {
		return ConvSpec{}, fmt.Errorf("%w: convolution needs a kernel length ≥ 1, got %d", ErrUnsupportedLength, k)
	}
	if k > math.MaxInt/4 || n > math.MaxInt-(k-1) {
		return ConvSpec{}, fmt.Errorf("%w: convolution of %d samples by %d taps overflows an int", ErrUnsupportedLength, n, k)
	}
	out := n + k - 1
	full := transformLen(out)
	if full == 0 {
		return ConvSpec{}, fmt.Errorf("%w: no transform length ≥ %d fits an int", ErrUnsupportedLength, out)
	}
	m := transformLen(max(4*k, minSegment))
	if m == 0 || m >= full {
		m = full
	}
	if m > convMaxM {
		return ConvSpec{}, fmt.Errorf("%w: a %d-point segment transform exceeds the largest buffer, %d points", ErrUnsupportedLength, m, convMaxM)
	}
	s := m - k + 1
	return ConvSpec{N: n, K: k, M: m, S: s, Segs: (out-1)/s + 1}, nil
}

// OutLen returns the linear convolution's output length, N+K-1.
func (c ConvSpec) OutLen() int { return c.N + c.K - 1 }

// Gather fills the M-element segment buffer for segment seg: input
// samples x[seg·S-(K-1) … seg·S-(K-1)+M), with positions outside
// [0, N) taken as zero. The first K-1 positions are the overlap with
// the previous segment; their circularly-contaminated outputs are
// discarded by Scatter.
func (c ConvSpec) Gather(seg int, dst, x []complex128) {
	start := seg*c.S - (c.K - 1)
	lo := max(start, 0)
	hi := max(min(start+c.M, c.N), lo)
	clear(dst[:lo-start])
	copy(dst[lo-start:], x[lo:hi])
	clear(dst[hi-start:])
}

// Scatter copies segment seg's fresh outputs — positions K-1 … M-1 of
// the inverse-transformed segment buffer, the ones free of circular
// contamination — into dst[seg·S : min(seg·S+S, OutLen)].
func (c ConvSpec) Scatter(seg int, dst, work []complex128) {
	lo := seg * c.S
	cnt := min(c.S, c.OutLen()-lo)
	copy(dst[lo:lo+cnt], work[c.K-1:c.K-1+cnt])
}

// PadKernel writes the K-tap kernel h into the M-element buffer dst
// (kernel first, zeros after) — the layout whose forward M-point
// transform is the cached segment filter spectrum.
func (c ConvSpec) PadKernel(dst, h []complex128) {
	copy(dst, h)
	clear(dst[c.K:])
}

// PadKernelReversed writes conj(h[K-1-t]) into dst — the kernel layout
// that turns the convolution machinery into cross-correlation:
// convolving x with the conjugated reversal of h yields
// dst[K-1+ℓ] = Σ_j x[j]·conj(h[j-ℓ]) for lags ℓ ∈ [-(K-1), N).
func (c ConvSpec) PadKernelReversed(dst, h []complex128) {
	for t := 0; t < c.K; t++ {
		v := h[c.K-1-t]
		dst[t] = complex(real(v), -imag(v))
	}
	clear(dst[c.K:])
}

// filterBlock is the elements per unit of a filter pass: 8 KiB, so the
// chunks a pass is cut into split the array only at multiples of a
// cache line's four elements.
const filterBlock = 512

// Filter returns the schedule of the circular convolution by the
// spectrum hhat of the len(hhat) points that fwd and inv, a plan's
// forward and inverse schedules, transform: fwd's passes, a filter pass
// computing y[k] *= hhat[k], then inv's passes, on one State whose
// buffers serve both directions. hhat is read, not copied, on every
// run.
func Filter(fwd, inv *Schedule, hhat []complex128) *Schedule {
	n := len(hhat)
	filter := Pass{PassFilter, (n + filterBlock - 1) / filterBlock, func(st *State, lo, hi int) {
		lo, hi = lo*filterBlock, min(hi*filterBlock, n)
		y := st.Data[lo:hi]
		for k, h := range hhat[lo:hi] {
			y[k] *= h
		}
	}}
	return &Schedule{N: n, Stage: fwd.Stage, Passes: slices.Concat(fwd.Passes, []Pass{filter}, inv.Passes),
		frame: max(fwd.frame, inv.frame), work: max(fwd.work, inv.work), span: max(fwd.Span(), inv.Span())}
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
