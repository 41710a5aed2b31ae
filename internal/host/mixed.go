// Parallel execution of the arbitrary-N plans: the mixed-radix Stockham
// stages shard across workers exactly like the staged power-of-two
// stages (each butterfly unit reads and writes disjoint elements with
// self-contained arithmetic, so any sharding is bitwise identical to
// the serial pass), and the Bluestein path runs its chirp sweeps with
// parallelFor and its embedded power-of-two convolution through the
// kernel-selected engine entry points — inheriting their determinism
// guarantee wholesale.
package host

import (
	"sync"
	"time"

	"codeletfft/internal/fft"
)

// workBuf is a pooled full-array work buffer: the Stockham ping-pong
// partner of a mixed-radix transform or the M-point convolution array
// of a Bluestein one — 16 MiB at M = 2^20, which a per-call make would
// allocate, zero and hand to the GC on every transform. Pooled like
// fft.SoAFrame; every user overwrites the whole buffer before reading
// it, so stale contents are harmless.
type workBuf struct{ v []complex128 }

var workPool sync.Pool

func getWork(n int) *workBuf {
	b, _ := workPool.Get().(*workBuf)
	if b == nil {
		b = &workBuf{}
	}
	if cap(b.v) < n {
		b.v = make([]complex128, n)
	}
	b.v = b.v[:n]
	return b
}

func (b *workBuf) release() { workPool.Put(b) }

// MixedTransform applies the mixed-radix forward DFT in place, sharding
// each Stockham stage across the worker pool with a barrier between
// stages. Transforms smaller than the threshold run serially. Output is
// bitwise identical to mp.Transform regardless of worker count.
func (e *Engine) MixedTransform(mp *fft.MixedPlan, data []complex128) {
	if len(data) != mp.N {
		panic(fft.LengthError("data", len(data), mp.N))
	}
	work := getWork(mp.N)
	if mp.N < e.threshold || e.workers <= 1 {
		mp.TransformWith(data, work.v)
	} else {
		e.mixedStages(mp, data, work.v)
	}
	work.release()
}

// mixedStages runs the stage passes over the data/work ping-pong pair,
// leaving the result in data — the parallel twin of
// MixedPlan.TransformWith.
func (e *Engine) mixedStages(mp *fft.MixedPlan, data, work []complex128) {
	src, dst := data, work
	for i := range mp.Stages {
		st := &mp.Stages[i]
		ts := e.passStart()
		e.parallelFor(st.Units(), func(_, lo, hi int) { st.Pass(src, dst, lo, hi) })
		e.passDone(PassStageMixed, ts)
		src, dst = dst, src
	}
	if len(mp.Stages)%2 == 1 {
		copy(data, work)
	}
}

// MixedInverse applies the mixed-radix inverse DFT in place via the
// conjugation identity, with the conjugate and scale sweeps also
// sharded. Output is bitwise identical to mp.InverseTransform.
func (e *Engine) MixedInverse(mp *fft.MixedPlan, data []complex128) {
	if len(data) != mp.N {
		panic(fft.LengthError("data", len(data), mp.N))
	}
	work := getWork(mp.N)
	if mp.N < e.threshold || e.workers <= 1 {
		mp.InverseTransformWith(data, work.v)
	} else {
		e.conj(data, false)
		e.mixedStages(mp, data, work.v)
		e.conjScale(data, 1/float64(mp.N), false)
	}
	work.release()
}

// MixedTransformBatch applies the mixed-radix forward DFT in place to
// every row of batch, sharding rows across workers (each worker runs
// whole serial transforms with a private ping-pong buffer). Output is
// bitwise identical to calling mp.Transform on each row in order.
func (e *Engine) MixedTransformBatch(mp *fft.MixedPlan, batch [][]complex128) {
	e.mixedBatch(mp, batch, (*fft.MixedPlan).TransformWith)
}

// MixedInverseBatch is MixedTransformBatch for the inverse DFT.
func (e *Engine) MixedInverseBatch(mp *fft.MixedPlan, batch [][]complex128) {
	e.mixedBatch(mp, batch, (*fft.MixedPlan).InverseTransformWith)
}

func (e *Engine) mixedBatch(mp *fft.MixedPlan, batch [][]complex128, run func(*fft.MixedPlan, []complex128, []complex128)) {
	for i, row := range batch {
		if len(row) != mp.N {
			panic(fft.BatchLengthError(i, len(row), mp.N))
		}
	}
	if len(batch) == 0 {
		return
	}
	start := time.Time{}
	if e.obs != nil {
		start = time.Now()
	}
	rows := func(_, lo, hi int) {
		work := getWork(mp.N)
		for i := lo; i < hi; i++ {
			run(mp, batch[i], work.v)
		}
		work.release()
	}
	if len(batch)*mp.N < e.threshold || e.workers <= 1 {
		rows(0, 0, len(batch))
	} else {
		e.parallelFor(len(batch), rows)
	}
	if e.obs != nil {
		e.obs.ObserveBatch(len(batch), mp.N, time.Since(start))
	}
}

// BluesteinTransform applies the chirp-z forward DFT in place: chirp
// sweeps via parallelFor, the embedded M-point convolution through the
// engine's kernel-selected power-of-two path. Because every sweep is
// elementwise and the convolution inherits the engine's determinism
// guarantee, output for a fixed kernel is bitwise identical across
// worker counts.
func (e *Engine) BluesteinTransform(bp *fft.BluesteinPlan, data []complex128, kern fft.Kernel) {
	if len(data) != bp.N {
		panic(fft.LengthError("data", len(data), bp.N))
	}
	work := getWork(bp.M)
	e.bluestein(bp, data, work.v, kern)
	work.release()
}

func (e *Engine) bluestein(bp *fft.BluesteinPlan, data, work []complex128, kern fft.Kernel) {
	n := bp.N
	serial := bp.M < e.threshold || e.workers <= 1
	t0 := e.passStart()
	if serial {
		for t := 0; t < n; t++ {
			work[t] = data[t] * bp.Chirp[t]
		}
		for t := n; t < bp.M; t++ {
			work[t] = 0
		}
	} else {
		e.parallelFor(bp.M, func(_, lo, hi int) {
			for t := lo; t < hi; t++ {
				if t < n {
					work[t] = data[t] * bp.Chirp[t]
				} else {
					work[t] = 0
				}
			}
		})
	}
	e.passDone(PassChirp, t0)
	e.TransformKernel(bp.Conv, work, bp.WConv, kern)
	if serial {
		for i := range work {
			work[i] *= bp.BHat[i]
		}
	} else {
		e.parallelFor(bp.M, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				work[i] *= bp.BHat[i]
			}
		})
	}
	e.InverseTransformKernel(bp.Conv, work, bp.WConv, kern)
	t1 := e.passStart()
	if serial {
		for k := 0; k < n; k++ {
			data[k] = work[k] * bp.Chirp[k]
		}
	} else {
		e.parallelFor(n, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				data[k] = work[k] * bp.Chirp[k]
			}
		})
	}
	e.passDone(PassChirp, t1)
}

// BluesteinInverse applies the chirp-z inverse DFT in place via the
// conjugation identity.
func (e *Engine) BluesteinInverse(bp *fft.BluesteinPlan, data []complex128, kern fft.Kernel) {
	if len(data) != bp.N {
		panic(fft.LengthError("data", len(data), bp.N))
	}
	work := getWork(bp.M)
	e.bluesteinInverse(bp, data, work.v, kern)
	work.release()
}

func (e *Engine) bluesteinInverse(bp *fft.BluesteinPlan, data, work []complex128, kern fft.Kernel) {
	serial := bp.M < e.threshold || e.workers <= 1
	e.conj(data, serial)
	e.bluestein(bp, data, work, kern)
	e.conjScale(data, 1/float64(bp.N), serial)
}

// BluesteinTransformBatch applies the chirp-z forward DFT in place to
// every row of batch, reusing one convolution buffer across rows; the
// convolution parallelism lives inside each row's engine dispatch.
// Output is bitwise identical to calling BluesteinTransform per row.
func (e *Engine) BluesteinTransformBatch(bp *fft.BluesteinPlan, batch [][]complex128, kern fft.Kernel) {
	e.bluesteinBatch(bp, batch, kern, e.bluestein)
}

// BluesteinInverseBatch is BluesteinTransformBatch for the inverse DFT.
func (e *Engine) BluesteinInverseBatch(bp *fft.BluesteinPlan, batch [][]complex128, kern fft.Kernel) {
	e.bluesteinBatch(bp, batch, kern, e.bluesteinInverse)
}

func (e *Engine) bluesteinBatch(bp *fft.BluesteinPlan, batch [][]complex128, kern fft.Kernel,
	run func(*fft.BluesteinPlan, []complex128, []complex128, fft.Kernel)) {
	for i, row := range batch {
		if len(row) != bp.N {
			panic(fft.BatchLengthError(i, len(row), bp.N))
		}
	}
	if len(batch) == 0 {
		return
	}
	start := time.Time{}
	if e.obs != nil {
		start = time.Now()
	}
	work := getWork(bp.M)
	for _, row := range batch {
		run(bp, row, work.v, kern)
	}
	work.release()
	if e.obs != nil {
		e.obs.ObserveBatch(len(batch), bp.N, time.Since(start))
	}
}
