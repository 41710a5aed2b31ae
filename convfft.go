// Convolution on the batched host engine. A ConvPlan runs linear
// convolution and cross-correlation by overlap-save: the signal is
// tiled into segments of a small FFT length chosen by the rule that
// picks Bluestein's convolution length (planned by the mixed-radix
// engine, so any kernel/signal length works), the kernel's
// segment spectrum is computed once and cached exactly like the
// Bluestein plan's BHat filter, and segment groups are dispatched
// through TransformBatch/InverseBatch so B segments pay the stage-
// barrier cost of one. The working set is bounded by the segment group
// (convGroup·M elements), not the signal — the memory-frugal
// alternative to transforming the whole padded signal at once.
package codeletfft

import (
	"sync"

	"codeletfft/internal/fft"
)

// convGroup bounds how many segments ride in one batched dispatch —
// and with it the convolution's working set (convGroup·M complex
// elements per scratch slab), independent of the signal length.
const convGroup = 64

// ConvPlan computes linear convolutions of an n-sample complex signal
// against a kernelLen-tap kernel by overlap-save on the batched host
// engine. A ConvPlan is immutable after construction and safe for
// concurrent use on distinct buffers.
type ConvPlan struct {
	spec fft.ConvSpec
	seg  *HostPlan
	pool sync.Pool // *convScratch
}

type convScratch struct {
	slab []complex128
	rows [][]complex128
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
	p.pool.New = func() any {
		g := min(convGroup, spec.Segs)
		sc := &convScratch{
			slab: make([]complex128, g*spec.M),
			rows: make([][]complex128, g),
		}
		for i := range sc.rows {
			sc.rows[i] = sc.slab[i*spec.M : (i+1)*spec.M]
		}
		return sc
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

// kernelSpectrum checks h's length for every entry that takes a
// kernel, then computes the M-point spectrum of the padded kernel —
// reversed and conjugated for correlation — through the segment plan.
func (p *ConvPlan) kernelSpectrum(h []complex128, reversed bool) ([]complex128, error) {
	if len(h) != p.spec.K {
		return nil, fft.LengthError("kernel", len(h), p.spec.K)
	}
	hhat := make([]complex128, p.spec.M)
	if reversed {
		p.spec.PadKernelReversed(hhat, h)
	} else {
		p.spec.PadKernel(hhat, h)
	}
	if err := p.seg.Transform(hhat); err != nil {
		return nil, err
	}
	return hhat, nil
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

// convolve checks x and dst, then h in kernelSpectrum, before touching
// any of them, and runs the overlap-save pipeline against h's spectrum:
// segment groups of up to convGroup gather, forward-batch,
// pointwise-multiply, inverse-batch, scatter.
func (p *ConvPlan) convolve(dst, x, h []complex128, reversed bool) error {
	switch {
	case len(x) != p.spec.N:
		return fft.LengthError("signal", len(x), p.spec.N)
	case len(dst) != p.spec.OutLen():
		return fft.LengthError("convolution output", len(dst), p.spec.OutLen())
	}
	hhat, err := p.kernelSpectrum(h, reversed)
	if err != nil {
		return err
	}
	sc := p.pool.Get().(*convScratch)
	defer p.pool.Put(sc)
	for g0 := 0; g0 < p.spec.Segs; g0 += len(sc.rows) {
		g := min(len(sc.rows), p.spec.Segs-g0)
		rows := sc.rows[:g]
		for i := 0; i < g; i++ {
			p.spec.Gather(g0+i, rows[i], x)
		}
		if err := p.seg.TransformBatch(rows); err != nil {
			return err
		}
		for i := 0; i < g; i++ {
			row := rows[i]
			for j := range row {
				row[j] *= hhat[j]
			}
		}
		if err := p.seg.InverseBatch(rows); err != nil {
			return err
		}
		for i := 0; i < g; i++ {
			p.spec.Scatter(g0+i, dst, rows[i])
		}
	}
	return nil
}

// FilterStream builds a streaming FIR filter over the plan's segment
// machinery with h's segment spectrum precomputed once — the shape for
// long or unbounded signals where Convolve's whole-signal buffers don't
// apply. len(h) must be KernelLen, or the error wraps ErrLengthMismatch.
func (p *ConvPlan) FilterStream(h []complex128) (*StreamFilter, error) {
	hhat, err := p.kernelSpectrum(h, false)
	if err != nil {
		return nil, err
	}
	f := &StreamFilter{
		p:    p,
		hhat: hhat,
		hist: make([]complex128, p.spec.K-1),
		seg:  make([]complex128, p.spec.M),
	}
	f.batch1 = [][]complex128{f.seg}
	return f, nil
}

// StreamFilter applies a fixed FIR kernel to an unbounded sample stream
// with bounded memory: one M-element segment buffer plus the K-1 sample
// history that overlap-save carries between calls. Process performs no
// allocation in steady state. A StreamFilter is stateful and must not
// be shared across goroutines; create one per stream.
type StreamFilter struct {
	p      *ConvPlan
	hhat   []complex128
	hist   []complex128 // last K-1 input samples
	seg    []complex128
	batch1 [][]complex128
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
		for i := k1 + c; i < spec.M; i++ {
			f.seg[i] = 0
		}
		if err := f.p.seg.TransformBatch(f.batch1); err != nil {
			return err
		}
		for j := range f.seg {
			f.seg[j] *= f.hhat[j]
		}
		if err := f.p.seg.InverseBatch(f.batch1); err != nil {
			return err
		}
		// Update the history before writing dst: dst may alias src.
		if c >= k1 {
			copy(f.hist, src[off+c-k1:off+c])
		} else {
			copy(f.hist, f.hist[c:])
			copy(f.hist[k1-c:], src[off:off+c])
		}
		copy(dst[off:off+c], f.seg[k1:k1+c])
		off += c
	}
	return nil
}

// Reset clears the filter's history, as if no samples had been
// processed.
func (f *StreamFilter) Reset() {
	for i := range f.hist {
		f.hist[i] = 0
	}
}
