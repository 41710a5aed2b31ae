package main

import (
	"os"

	"codeletfft"
	"codeletfft/internal/fft"
)

const oocBudget = 4 << 20

// oocSpill runs the four-step transform through segment files, CRCs
// and the prefetch pipeline under a 4 MiB budget. The spill directory
// lives under the benchmark's output directory, so a run writes nothing
// outside its checkout; the fingerprint names the filesystem.
type oocSpill struct {
	outDir string
	dir    string
	plan   *codeletfft.OOCPlan
	orig   []complex128
	data   []complex128
	want   []complex128 // fft.NewFourStep on the same input, bit for bit
	// corrupt, when set, damages the forward result before it is
	// checked — the seam the failure-accounting test uses.
	corrupt func(data []complex128)
}

func newOOCSpill(outDir string) workload { return &oocSpill{outDir: outDir} }

func (w *oocSpill) setup(seed uint64) error {
	if err := os.MkdirAll(w.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.outDir, "spill-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.plan, err = codeletfft.NewOOCPlan(largeN, codeletfft.OOCMemoryBudget(oocBudget), codeletfft.OOCSpillDir(dir))
	if err != nil {
		return err
	}
	w.orig = randomComplex(newRNG(seed, 5), largeN)
	w.data = append(w.data[:0], w.orig...)
	return nil
}

func (w *oocSpill) prepare() error {
	if w.want != nil {
		return nil
	}
	n1, n2 := w.plan.Factors()
	fs, err := fft.NewFourStep(n1, n2)
	if err != nil {
		return err
	}
	w.want = append([]complex128(nil), w.orig...)
	fs.Transform(w.want)
	return nil
}

func (w *oocSpill) op(x *opCtx) {
	// Every op starts from the pristine input, so the forward pass can
	// be held to bitwise equality.
	copy(w.data, w.orig)
	x.timed("transform", catOOC, func() error { return w.plan.Transform(w.data) })
	if w.corrupt != nil {
		w.corrupt(w.data)
	}
	x.verified(func() error { return identical("out-of-core spectrum", w.data, w.want) })
	x.timed("inverse", catOOC, func() error { return w.plan.Inverse(w.data) })
	x.verified(func() error { return closeTo("out-of-core round trip", w.data, w.orig) })
}

func (w *oocSpill) close() {
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // a leftover spill directory is harmless
		w.dir = ""
	}
}
