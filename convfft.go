// Convolution on the host engine. A ConvPlan runs linear convolution
// and cross-correlation by overlap-save: the signal is tiled into
// segments of a small FFT length chosen by the rule that picks
// Bluestein's convolution length (planned by the mixed-radix engine, so
// any kernel/signal length works), and the kernel's M-point spectrum is
// computed once per call and read by every segment, as the Bluestein
// plan's BHat filter is. A call is one schedule on the plan's engine: a
// segments pass whose unit gathers its segment into a pooled M-point
// buffer, runs the segment plan's filter schedule (fft.Filter) there
// through the same engine and scatters its fresh outputs. The working
// set is one M-point buffer per running unit, not the signal — the
// memory-frugal alternative to transforming the whole padded signal at
// once.
package codeletfft

import (
	"sync"

	"codeletfft/internal/fft"
)

// ConvPlan computes linear convolutions of an n-sample complex signal
// against a kernelLen-tap kernel by overlap-save on the host engine. A
// ConvPlan is immutable after construction and safe for concurrent use
// on distinct buffers.
type ConvPlan struct {
	spec fft.ConvSpec
	seg  *HostPlan
	runs sync.Pool // *convRun
	bufs sync.Pool // *[]complex128, a unit's M-point segment buffer
}

// convRun is what one Convolve or CrossCorrelate call runs, pooled with
// its buffers: the kernel spectrum, the filter schedule that reads it,
// and the segments schedule over the call's signal x.
type convRun struct {
	hhat   []complex128
	filter *fft.Schedule
	segs   fft.Schedule
	x      []complex128
}

// NewConvPlan builds an overlap-save convolution plan for n-sample
// signals and kernelLen-tap kernels, any n ≥ 1 and kernelLen ≥ 1. The
// segment FFT length is the cheapest {2,3,5}-smooth multiple of 4
// between max(4·kernelLen, 256) and the next power of two, or that
// power of two — Bluestein's length rule — collapsed to a single
// full-length segment when the whole output fits in one that small, so
// every segment transform runs the vector mixed-radix stages (or the
// default plan of that power of two) natively. opts configure the segment
// plan's engine exactly as for NewHostPlan. A shape whose output length
// or 4·kernelLen overflows an int is ErrUnsupportedLength.
func NewConvPlan(n, kernelLen int, opts ...HostOption) (*ConvPlan, error) {
	spec, err := fft.NewConvSpec(n, kernelLen)
	if err != nil {
		return nil, err
	}
	seg, err := CachedHostPlan(spec.M, opts...)
	if err != nil {
		return nil, err
	}
	p := &ConvPlan{spec: spec, seg: seg}
	p.bufs.New = func() any {
		b := make([]complex128, spec.M)
		return &b
	}
	p.runs.New = func() any {
		r := &convRun{hhat: make([]complex128, spec.M)}
		r.filter = fft.Filter(seg.core.fwd, seg.core.inv, r.hhat)
		r.segs = fft.Schedule{N: spec.OutLen(), Stage: fft.PassSegments, Passes: []fft.Pass{
			{Label: fft.PassSegments, Units: spec.Segs, Run: func(st *fft.State, lo, hi int) {
				buf := p.bufs.Get().(*[]complex128)
				for s := lo; s < hi; s++ {
					spec.Gather(s, *buf, r.x)
					_ = p.seg.eng.Run(r.filter, *buf) // the buffer has the filter's length
					spec.Scatter(s, st.Data, *buf)
				}
				p.bufs.Put(buf)
			}},
		}}
		return r
	}
	return p, nil
}

// N returns the signal length the plan convolves.
func (p *ConvPlan) N() int { return p.spec.N }

// KernelLen returns the kernel tap count.
func (p *ConvPlan) KernelLen() int { return p.spec.K }

// OutLen returns N+KernelLen-1, the linear convolution's output length
// — the buffer length Convolve and CrossCorrelate fill.
func (p *ConvPlan) OutLen() int { return p.spec.OutLen() }

// SegmentLen returns the overlap-save segment FFT length M.
func (p *ConvPlan) SegmentLen() int { return p.spec.M }

// Segments returns how many segments tile one convolution.
func (p *ConvPlan) Segments() int { return p.spec.Segs }

// spectrum checks h's length for every entry that takes a kernel,
// then writes into hhat the M-point spectrum of the padded kernel —
// reversed and conjugated for correlation — through the segment plan.
func (p *ConvPlan) spectrum(hhat, h []complex128, reversed bool) error {
	if len(h) != p.spec.K {
		return fft.LengthError("kernel", len(h), p.spec.K)
	}
	if reversed {
		p.spec.PadKernelReversed(hhat, h)
	} else {
		p.spec.PadKernel(hhat, h)
	}
	return p.seg.Transform(hhat)
}

// Convolve computes the linear convolution dst[i] = Σ_j x[j]·h[i-j].
// len(x) must be N, len(h) KernelLen, and len(dst) OutLen; a mismatch
// is returned as an error wrapping ErrLengthMismatch before any buffer
// is touched. x and h are not modified.
func (p *ConvPlan) Convolve(dst, x, h []complex128) error { return p.convolve(dst, x, h, false) }

// CrossCorrelate computes the cross-correlation of x against h:
// dst[K-1+ℓ] = Σ_j x[j]·conj(h[j-ℓ]) for lags ℓ ∈ [-(K-1), N), K the
// kernel length — zero lag lands at dst[K-1]. Buffer lengths match
// Convolve's contract.
func (p *ConvPlan) CrossCorrelate(dst, x, h []complex128) error {
	return p.convolve(dst, x, h, true)
}

// convolve checks x and dst, then h in spectrum, before touching any
// of them, and runs the call's segments schedule on the plan's engine.
func (p *ConvPlan) convolve(dst, x, h []complex128, reversed bool) error {
	switch {
	case len(x) != p.spec.N:
		return fft.LengthError("signal", len(x), p.spec.N)
	case len(dst) != p.spec.OutLen():
		return fft.LengthError("convolution output", len(dst), p.spec.OutLen())
	}
	r := p.runs.Get().(*convRun)
	defer p.runs.Put(r)
	if err := p.spectrum(r.hhat, h, reversed); err != nil {
		return err
	}
	r.x = x
	err := p.seg.eng.Run(&r.segs, dst)
	r.x = nil // a pooled run must not pin the caller's signal
	return err
}

// FilterStream builds a streaming FIR filter over the plan's segment
// machinery with h's segment spectrum precomputed once — the shape for
// long or unbounded signals where Convolve's whole-signal buffers don't
// apply. len(h) must be KernelLen, or the error wraps ErrLengthMismatch.
func (p *ConvPlan) FilterStream(h []complex128) (*StreamFilter, error) {
	hhat := make([]complex128, p.spec.M)
	if err := p.spectrum(hhat, h, false); err != nil {
		return nil, err
	}
	return &StreamFilter{
		p:      p,
		filter: fft.Filter(p.seg.core.fwd, p.seg.core.inv, hhat),
		hist:   make([]complex128, p.spec.K-1),
		seg:    make([]complex128, p.spec.M),
	}, nil
}

// StreamFilter applies a fixed FIR kernel to an unbounded sample stream
// with bounded memory: one M-element segment buffer plus the K-1 sample
// history that overlap-save carries between calls. Process performs no
// allocation in steady state. A StreamFilter is stateful and must not
// be shared across goroutines; create one per stream.
type StreamFilter struct {
	p      *ConvPlan
	filter *fft.Schedule
	hist   []complex128 // last K-1 input samples
	seg    []complex128
}

// KernelLen returns the filter's tap count.
func (f *StreamFilter) KernelLen() int { return f.p.spec.K }

// Process filters len(src) samples continuing from the history of all
// prior calls: dst[i] = Σ_j h[j]·src[i-j], with src[i-j] drawn from
// earlier Process calls when i < j (zeros before the first call).
// len(dst) must equal len(src), or the error wraps ErrLengthMismatch
// and neither the buffers nor the history move; dst and src may be the
// same slice.
func (f *StreamFilter) Process(dst, src []complex128) error {
	if len(dst) != len(src) {
		return fft.LengthError("filter output", len(dst), len(src))
	}
	spec := f.p.spec
	k1 := spec.K - 1
	for off := 0; off < len(src); {
		c := min(spec.S, len(src)-off)
		copy(f.seg, f.hist)
		copy(f.seg[k1:], src[off:off+c])
		clear(f.seg[k1+c:])
		// The next history is the segment's last K-1 inputs, taken before
		// the filter overwrites them and dst, which may alias src.
		copy(f.hist, f.seg[c:c+k1])
		if err := f.p.seg.eng.Run(f.filter, f.seg); err != nil {
			return err
		}
		copy(dst[off:off+c], f.seg[k1:k1+c])
		off += c
	}
	return nil
}

// Reset clears the filter's history, as if no samples had been
// processed.
func (f *StreamFilter) Reset() { clear(f.hist) }
