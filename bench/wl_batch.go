package main

import (
	"fmt"

	"codeletfft"
)

// batchRowPoints is the number of points every complex shape of
// batch_resident transforms per call: B = ⌊2^17/N⌋ rows, so a step
// keeps at most 2 MiB live.
const batchRowPoints = 1 << 17

const (
	batchRealN     = 4096
	batchRealReps  = 32
	batchChunk     = 1 << 16
	batchTaps      = 255
	batchFrame     = 1024
	batchHop       = 256
	batchRefFrames = 8
)

// batchSizes lists the complex shapes with their codelet family.
var batchSizes = []sizeCat{
	{1024, catPow2}, {4096, catPow2}, {16384, catPow2},
	{3072, catMixed}, {1000, catMixed},
	{1009, catBluestein},
}

type batchShape struct {
	n    int
	cat  string
	name string
	orig [][]complex128
	work [][]complex128
}

// batchRef is the forward-spectrum reference of one shape: rows are
// the checked rows, against the full O(N²) DFT for N ≤ 4096 and
// directly evaluated bins above.
type batchRef struct {
	rows []int
	bins []int
	spec [][]complex128
}

// batchResident is the cache-resident workload: every codelet family
// and facade surface at sizes where the memory system is out of the
// picture.
type batchResident struct {
	opts   []codeletfft.HostOption
	shapes []batchShape
	refs   []batchRef // survives a repeated set-up: same seed, same inputs

	realIn, realOut []float64
	realSpec        []complex128
	realRef         []complex128

	filter            *codeletfft.StreamFilter
	taps, chunk, filt []complex128
	convRef           []complex128

	stft      *codeletfft.STFTPlan
	signal    []float64
	spectro   [][]complex128
	stftRef   [][]complex128
	refFrames []int

	prepared bool
}

func batchPoints() float64 {
	pts := 0.0
	for _, s := range batchSizes {
		pts += 2 * float64(batchRowPoints/s.n*s.n)
	}
	pts += 2 * batchRealReps * batchRealN
	pts += batchChunk
	pts += float64((1 + (batchChunk-batchFrame)/batchHop) * batchFrame)
	return pts
}

func (w *batchResident) setup(seed uint64) error {
	w.opts = []codeletfft.HostOption{codeletfft.WithWorkers(1)}
	r := newRNG(seed, 1)
	w.shapes = w.shapes[:0]
	for _, s := range batchSizes {
		// A fresh, uncached plan per shape: the construction and tuning
		// cost a first caller pays, whatever the process-wide plan cache
		// already holds.
		p, err := codeletfft.NewHostPlan(s.n, w.opts...)
		if err != nil {
			return err
		}
		_ = p.Kernel()
		sh := batchShape{n: s.n, cat: s.cat, name: fmt.Sprintf("n%d", s.n)}
		sh.orig = randomRows(r, batchRowPoints/s.n, s.n)
		sh.work = cloneRows(sh.orig)
		w.shapes = append(w.shapes, sh)
	}
	if _, err := codeletfft.NewRealPlan(batchRealN, w.opts...); err != nil {
		return err
	}
	w.realIn = make([]float64, batchRealN)
	fillReal(r, w.realIn)
	w.realOut = make([]float64, batchRealN)
	w.realSpec = make([]complex128, batchRealN/2+1)

	cp, err := codeletfft.NewConvPlan(batchChunk, batchTaps, w.opts...)
	if err != nil {
		return err
	}
	w.taps = randomComplex(r, batchTaps)
	if w.filter, err = cp.FilterStream(w.taps); err != nil {
		return err
	}
	w.chunk = randomComplex(r, batchChunk)
	w.filt = make([]complex128, batchChunk)

	if w.stft, err = codeletfft.NewSTFTPlan(batchFrame, batchHop, codeletfft.HannWindow(batchFrame), w.opts...); err != nil {
		return err
	}
	w.signal = make([]float64, batchChunk)
	fillReal(r, w.signal)
	w.spectro = randomRows(r, w.stft.NumFrames(batchChunk), batchFrame)
	return nil
}

func (w *batchResident) prepare() error {
	if w.prepared {
		return nil
	}
	for _, sh := range w.shapes {
		ref := batchRef{rows: []int{0, len(sh.orig) - 1}}
		if sh.n <= 4096 {
			ref.bins = pickBins(sh.n, sh.n)
			for _, row := range ref.rows {
				ref.spec = append(ref.spec, codeletfft.DFT(sh.orig[row]))
			}
		} else {
			ref.bins = pickBins(sh.n, 64)
			tab := rootTable(sh.n)
			for _, row := range ref.rows {
				ref.spec = append(ref.spec, dftBins(sh.orig[row], tab, ref.bins))
			}
		}
		w.refs = append(w.refs, ref)
	}
	x := make([]complex128, batchRealN)
	for i, v := range w.realIn {
		x[i] = complex(v, 0)
	}
	w.realRef = codeletfft.DFT(x)[:batchRealN/2+1]

	// The filter starts every op from an empty history, so its output
	// is the head of the direct linear convolution.
	w.convRef = make([]complex128, batchChunk)
	for i := range w.convRef {
		var sum complex128
		for j := 0; j <= min(i, batchTaps-1); j++ {
			sum += w.taps[j] * w.chunk[i-j]
		}
		w.convRef[i] = sum
	}

	win := codeletfft.HannWindow(batchFrame)
	frames := len(w.spectro)
	frame := make([]complex128, batchFrame)
	for k := 0; k < batchRefFrames; k++ {
		f := k * (frames - 1) / (batchRefFrames - 1)
		for i := range frame {
			frame[i] = complex(w.signal[f*batchHop+i]*win[i], 0)
		}
		w.refFrames = append(w.refFrames, f)
		w.stftRef = append(w.stftRef, codeletfft.DFT(frame))
	}
	w.prepared = true
	return nil
}

func (w *batchResident) op(x *opCtx) {
	for i := range w.shapes {
		sh := &w.shapes[i]
		x.group(sh.name, sh.cat, func() {
			var p *codeletfft.HostPlan
			x.timed("cached_host_plan", catLookup, func() (err error) {
				p, err = codeletfft.CachedHostPlan(sh.n, w.opts...)
				return err
			})
			x.timed("transform_batch", sh.cat, func() error { return p.TransformBatch(sh.work) })
			if x.check {
				x.verified(func() error {
					ref := w.refs[i]
					for r, row := range ref.rows {
						if err := binsCloseTo(sh.name+" spectrum", sh.work[row], ref.bins, ref.spec[r]); err != nil {
							return err
						}
					}
					return nil
				})
			}
			x.timed("inverse_batch", sh.cat, func() error { return p.InverseBatch(sh.work) })
			x.verified(func() error {
				for r, row := range sh.work {
					if err := closeTo(sh.name+" round trip", row, sh.orig[r]); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}

	x.group("real4096", catReal, func() {
		var rp *codeletfft.RealPlan
		x.timed("cached_real_plan", catLookup, func() (err error) {
			rp, err = codeletfft.CachedRealPlan(batchRealN, w.opts...)
			return err
		})
		for i := 0; i < batchRealReps && x.ok(); i++ {
			x.timed("real_transform", catReal, func() error { return rp.Transform(w.realSpec, w.realIn) })
			if x.check && i == 0 {
				x.verified(func() error { return closeTo("real spectrum", w.realSpec, w.realRef) })
			}
			x.timed("real_inverse", catReal, func() error { return rp.Inverse(w.realOut, w.realSpec) })
		}
		x.verified(func() error { return closeToReal("real round trip", w.realOut, w.realIn) })
	})

	w.filter.Reset()
	x.timed("stream_filter", catConv, func() error { return w.filter.Process(w.filt, w.chunk) })
	x.verified(func() error { return closeTo("filter output", w.filt, w.convRef) })

	x.timed("stft", catSTFT, func() error { return w.stft.Transform(w.spectro, w.signal) })
	x.verified(func() error {
		for k, f := range w.refFrames {
			if err := closeTo("spectrogram frame", w.spectro[f], w.stftRef[k]); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *batchResident) close() {}
