package main

import (
	"fmt"

	"codeletfft"
)

const (
	largeN    = 1 << 20
	largeBins = 64
)

// largeAnyNSizes are the arbitrary-N sizes: mixed-radix Stockham,
// radix 2·5, and Bluestein with an embedded 2^20 convolution.
var largeAnyNSizes = []sizeCat{
	{3 << 18, catMixed}, {1000000, catMixed}, {1<<18 + 3, catBluestein},
}

type largeItem struct {
	n    int
	cat  string
	name string
	plan *codeletfft.HostPlan
	orig []complex128
	data []complex128
}

type largeRef struct {
	bins []int
	spec []complex128
}

// largeInCore is large_pow2 and large_anyn: single in-place transforms
// of arrays several times the L2, one caller, one worker.
type largeInCore struct {
	sizes []sizeCat
	items []largeItem
	refs  []largeRef
}

func newLargePow2(string) workload {
	return &largeInCore{sizes: []sizeCat{{largeN, catPow2}}}
}

func newLargeAnyN(string) workload { return &largeInCore{sizes: largeAnyNSizes} }

func largePoints(sizes []sizeCat) float64 {
	pts := 0.0
	for _, s := range sizes {
		pts += 2 * float64(s.n)
	}
	return pts
}

func (w *largeInCore) setup(seed uint64) error {
	r := newRNG(seed, 2)
	w.items = w.items[:0]
	for _, s := range w.sizes {
		p, err := codeletfft.NewHostPlan(s.n, codeletfft.WithWorkers(1))
		if err != nil {
			return err
		}
		_ = p.Kernel() // tuning is set-up work, not the first op's
		it := largeItem{n: s.n, cat: s.cat, name: fmt.Sprintf("n%d", s.n), plan: p}
		it.orig = randomComplex(r, s.n)
		it.data = append([]complex128(nil), it.orig...)
		w.items = append(w.items, it)
	}
	return nil
}

func (w *largeInCore) prepare() error {
	if w.refs != nil {
		return nil
	}
	for _, it := range w.items {
		ref := largeRef{bins: pickBins(it.n, largeBins)}
		ref.spec = dftBins(it.orig, rootTable(it.n), ref.bins)
		w.refs = append(w.refs, ref)
	}
	return nil
}

func (w *largeInCore) op(x *opCtx) {
	for i := range w.items {
		it := &w.items[i]
		x.group(it.name, it.cat, func() {
			x.timed("transform", it.cat, func() error { return it.plan.Transform(it.data) })
			if x.check {
				x.verified(func() error {
					return binsCloseTo(it.name+" spectrum", it.data, w.refs[i].bins, w.refs[i].spec)
				})
			}
			x.timed("inverse", it.cat, func() error { return it.plan.Inverse(it.data) })
			x.verified(func() error { return closeTo(it.name+" round trip", it.data, it.orig) })
		})
	}
}

func (w *largeInCore) close() {}
