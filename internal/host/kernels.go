// Kernel-parameterized engine entry points. Every method here mirrors
// its radix-2 counterpart exactly — same sharding, same barriers, same
// serial-fallback rule — with fft.RunTaskKernel in place of fft.RunTask,
// so the engine's determinism guarantee holds per kernel: for a fixed
// kernel, serial, parallel and batched execution are bitwise identical.
// KernelRadix2 (and KernelAuto, which resolves to it at this layer)
// routes through the legacy methods untouched, keeping PR 1's bitwise
// contract with existing callers.
package host

import (
	"codeletfft/internal/fft"
)

// Stage pass labels for the higher-radix kernels. The radix-2 stage pass
// keeps the original PassStage label so dashboards built on PR 3's
// metrics keep working; the new kernels get their own labels so mixed
// workloads can be told apart.
const (
	PassStageRadix4     = "stage_radix4"     // radix-4 butterfly stage
	PassStageSplitRadix = "stage_splitradix" // split-radix butterfly stage
	PassStageSoA2       = "stage_soa2"       // SoA radix-2 level sweeps of one stage
	PassStageSoA4       = "stage_soa4"       // SoA fused radix-4 level sweeps of one stage
)

// StagePassLabel returns the Observer label for a butterfly stage pass
// run with kern. Exposed so metric exporters can pre-register every
// label an engine may emit.
func StagePassLabel(kern fft.Kernel) string {
	switch kern.Concrete() {
	case fft.KernelRadix4:
		return PassStageRadix4
	case fft.KernelSplitRadix:
		return PassStageSplitRadix
	case fft.KernelSoARadix2:
		return PassStageSoA2
	case fft.KernelSoARadix4:
		return PassStageSoA4
	}
	return PassStage
}

// TransformKernel is Transform with a selectable butterfly kernel.
// KernelAuto and KernelRadix2 are bit-for-bit Transform.
func (e *Engine) TransformKernel(pl *fft.Plan, data, w []complex128, kern fft.Kernel) {
	kern = kern.Concrete()
	if kern == fft.KernelRadix2 {
		e.Transform(pl, data, w)
		return
	}
	if len(data) != pl.N {
		panic(fft.LengthError("data", len(data), pl.N))
	}
	if pl.N < e.threshold || e.workers <= 1 {
		pl.TransformKernel(data, w, kern)
		return
	}
	if kern.SoA() {
		e.transformSoA(pl, data, w, kern, false)
		return
	}
	t0 := e.passStart()
	e.bitReverse(data, pl.LogN)
	e.passDone(PassBitRev, t0)
	label := StagePassLabel(kern)
	// The closure captures a never-reassigned copy by value; capturing
	// kern itself (reassigned above) would move it to the heap at
	// function entry, one allocation on every call, serial paths too.
	k := kern
	scratch := make([]*fft.Scratch, e.workers)
	for stage := 0; stage < pl.NumStages; stage++ {
		ts := e.passStart()
		e.parallelFor(pl.TasksPerStage, func(wk, lo, hi int) {
			sc := scratch[wk]
			if sc == nil {
				sc = fft.NewScratch(pl)
				scratch[wk] = sc
			}
			for task := lo; task < hi; task++ {
				pl.RunTaskKernel(stage, task, data, w, k, sc)
			}
		})
		e.passDone(label, ts)
	}
}

// transformSoA is the engine's parallel path for the split-plane
// kernels: shard the tiled pack+bitrev by tile, run every stage's
// passes with parallelFor over their units (a barrier after each pass,
// exactly the ordering TransformSoA uses serially), shard the unpack.
// The inverse folds its conjugation into the pack and its
// conjugate-and-scale into the unpack, as InverseTransformSoA does.
// Tiles and units of one pass touch disjoint plane elements and their
// results are independent of the partition, so output is bitwise
// identical to the serial path.
func (e *Engine) transformSoA(pl *fft.Plan, data, w []complex128, kern fft.Kernel, inverse bool) {
	st := pl.SoATwiddles(w)
	f := fft.GetSoAFrame(pl.N)
	t0 := e.passStart()
	e.parallelFor(fft.SoAPackTiles(pl.LogN), func(_, lo, hi int) {
		f.PackTiles(data, lo, hi, pl.LogN, inverse)
	})
	e.passDone(PassSoAPack, t0)
	label := StagePassLabel(kern)
	for stage := 0; stage < pl.NumStages; stage++ {
		ts := e.passStart()
		for pass, np := 0, pl.SoAPasses(stage, kern); pass < np; pass++ {
			e.parallelFor(pl.SoAPassUnits(stage, pass, kern), func(_, lo, hi int) {
				pl.SoARunPass(stage, pass, lo, hi, f, st, kern)
			})
		}
		e.passDone(label, ts)
	}
	t1 := e.passStart()
	e.parallelFor(pl.N, func(_, lo, hi int) {
		if inverse {
			f.UnpackConjScale(data, lo, hi, 1/float64(pl.N))
		} else {
			f.Unpack(data, lo, hi)
		}
	})
	e.passDone(PassSoAUnpack, t1)
	f.Release()
}

// InverseTransformKernel is InverseTransform with a selectable kernel.
func (e *Engine) InverseTransformKernel(pl *fft.Plan, data, w []complex128, kern fft.Kernel) {
	kern = kern.Concrete()
	if kern == fft.KernelRadix2 {
		e.InverseTransform(pl, data, w)
		return
	}
	if len(data) != pl.N {
		panic(fft.LengthError("data", len(data), pl.N))
	}
	if pl.N < e.threshold || e.workers <= 1 {
		pl.InverseTransformKernel(data, w, kern)
		return
	}
	if kern.SoA() {
		e.transformSoA(pl, data, w, kern, true)
		return
	}
	e.conj(data, false)
	e.TransformKernel(pl, data, w, kern)
	e.conjScale(data, 1/float64(pl.N), false)
}

// Transform2DKernel is Transform2D with a selectable kernel applied to
// both the row and column passes.
func (e *Engine) Transform2DKernel(p *fft.Plan2D, data []complex128, kern fft.Kernel) {
	kern = kern.Concrete()
	if kern == fft.KernelRadix2 {
		e.Transform2D(p, data)
		return
	}
	if len(data) != p.Rows*p.Cols {
		panic(fft.LengthError("2-D data", len(data), p.Rows*p.Cols))
	}
	if p.Rows*p.Cols < e.threshold || e.workers <= 1 {
		p.TransformKernel(data, kern)
		return
	}
	t0 := e.passStart()
	e.parallelFor(p.Rows, func(_, lo, hi int) {
		sc := fft.NewScratch(p.RowPlan)
		for r := lo; r < hi; r++ {
			p.RowPlan.TransformKernelWith(data[r*p.Cols:(r+1)*p.Cols], p.WRow, kern, sc)
		}
	})
	e.passDone(PassRows, t0)
	t1 := e.passStart()
	e.parallelFor(p.Cols, func(_, lo, hi int) {
		sc := fft.NewScratch(p.ColPlan)
		col := make([]complex128, p.Rows)
		for c := lo; c < hi; c++ {
			for r := 0; r < p.Rows; r++ {
				col[r] = data[r*p.Cols+c]
			}
			p.ColPlan.TransformKernelWith(col, p.WCol, kern, sc)
			for r := 0; r < p.Rows; r++ {
				data[r*p.Cols+c] = col[r]
			}
		}
	})
	e.passDone(PassCols, t1)
}

// InverseTransform2DKernel is InverseTransform2D with a selectable
// kernel.
func (e *Engine) InverseTransform2DKernel(p *fft.Plan2D, data []complex128, kern fft.Kernel) {
	kern = kern.Concrete()
	if kern == fft.KernelRadix2 {
		e.InverseTransform2D(p, data)
		return
	}
	if len(data) != p.Rows*p.Cols {
		panic(fft.LengthError("2-D data", len(data), p.Rows*p.Cols))
	}
	if p.Rows*p.Cols < e.threshold || e.workers <= 1 {
		p.InverseTransformKernel(data, kern)
		return
	}
	e.conj(data, false)
	e.Transform2DKernel(p, data, kern)
	e.conjScale(data, 1/float64(p.Rows*p.Cols), false)
}

// RealTransformKernel is RealTransform with a selectable kernel for the
// packed half transform.
func (e *Engine) RealTransformKernel(rp *fft.RealPlan, dst []complex128, src []float64, kern fft.Kernel) {
	rp.Pack(dst, src)
	e.TransformKernel(rp.Half, dst[:rp.N/2], rp.WHalf, kern)
	rp.Unpack(dst)
}

// RealInverseKernel is RealInverse with a selectable kernel for the
// inverse half transform.
func (e *Engine) RealInverseKernel(rp *fft.RealPlan, dst []float64, src []complex128, kern fft.Kernel) {
	work := make([]complex128, rp.N/2)
	rp.PreInverse(work, src)
	e.InverseTransformKernel(rp.Half, work, rp.WHalf, kern)
	rp.PostInverse(dst, work)
}
