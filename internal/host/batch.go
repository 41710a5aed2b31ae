// Batched execution: B independent transforms of one plan fed through a
// single dispatch of a persistent worker pool, instead of B sequential
// engine calls. The batch runs in lockstep passes — bit-reversal, then
// each butterfly stage, with a barrier between passes — and within a
// pass the workers steal (transform, stage-chunk) work units off a
// shared atomic cursor, so the pool stays busy across transforms even
// when one transform alone has too little work per stage to feed every
// worker. All per-call state (*batchJob) and per-worker scratch come
// from sync.Pools, so the steady state allocates nothing — a property
// the AllocsPerRun guard in batch_test.go pins.
//
// Correctness story, same as the single-transform engine: tasks of one
// stage touch pairwise-disjoint elements, distinct transforms touch
// distinct arrays, and the barrier between passes orders everything
// else, so batched output is bitwise identical to the serial loop.
package host

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/fft"
)

// Pass kinds of a batched execution.
const (
	passBitRev    = iota // unit: one transform's bit-reversal permutation
	passStage            // unit: one (transform, task) pair of the current stage
	passConj             // unit: one transform's conjugation sweep
	passConjScale        // unit: one transform's conjugate-and-scale sweep
	passWhole            // unit: one complete SoA transform (pack→stages→unpack)
	passWholeInv         // unit: one complete SoA inverse (conj and scale ride the pack/unpack)
)

// passLabel maps a batch pass kind to its Observer label; stage passes
// are labeled per kernel (see StagePassLabel).
func passLabel(mode int, kern fft.Kernel) string {
	switch mode {
	case passBitRev:
		return PassBitRev
	case passStage, passWhole, passWholeInv:
		return StagePassLabel(kern)
	case passConj:
		return PassConj
	default:
		return PassScale
	}
}

// batchJob carries one pass of one batched call through the worker
// pool. The same job object is re-armed for every pass of the call and
// recycled through jobPool afterwards.
type batchJob struct {
	pl    *fft.Plan
	batch [][]complex128
	w     []complex128
	kern  fft.Kernel

	mode  int
	stage int
	units int64 // total work units this pass
	chunk int64 // units claimed per steal
	scale float64

	next atomic.Int64
	wg   sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(batchJob) }}

// ensurePool starts the persistent batch workers on first use. The
// workers hold only the jobs channel and the shared scratch pool — not
// the Engine — so when the Engine becomes unreachable its finalizer
// closes the channel and the workers exit.
func (e *Engine) ensurePool() {
	e.poolOnce.Do(func() {
		jobs := make(chan *batchJob, e.workers)
		e.jobs = jobs
		for i := 0; i < e.workers; i++ {
			go batchWorker(jobs, e.scratch)
		}
		runtime.SetFinalizer(e, func(*Engine) { close(jobs) })
	})
}

func batchWorker(jobs <-chan *batchJob, scratch *sync.Pool) {
	for job := range jobs {
		job.run(scratch)
		job.wg.Done()
	}
}

// getScratch returns a pooled scratch sized for pl, falling back to a
// fresh allocation when the pool is empty or holds a different task
// size (a wrong-size scratch is simply dropped; under a steady plan mix
// the pool converges and Get never misses).
func getScratch(pool *sync.Pool, pl *fft.Plan) *fft.Scratch {
	if sc, _ := pool.Get().(*fft.Scratch); sc != nil && len(sc.Idx) == pl.P {
		return sc
	}
	return fft.NewScratch(pl)
}

// run drains the current pass: claim a chunk of work units off the
// shared cursor, execute them, repeat until the pass is exhausted.
func (job *batchJob) run(scratch *sync.Pool) {
	var sc *fft.Scratch
	if job.mode == passStage {
		sc = getScratch(scratch, job.pl)
	}
	for {
		lo := job.next.Add(job.chunk) - job.chunk
		if lo >= job.units {
			break
		}
		hi := min(lo+job.chunk, job.units)
		switch job.mode {
		case passBitRev:
			for t := lo; t < hi; t++ {
				fft.BitReversePermute(job.batch[t])
			}
		case passStage:
			tps := int64(job.pl.TasksPerStage)
			for u := lo; u < hi; u++ {
				job.pl.RunTaskKernel(job.stage, int(u%tps), job.batch[u/tps], job.w, job.kern, sc)
			}
		case passWhole:
			for t := lo; t < hi; t++ {
				job.pl.TransformSoA(job.batch[t], job.w, job.kern)
			}
		case passWholeInv:
			for t := lo; t < hi; t++ {
				job.pl.InverseTransformSoA(job.batch[t], job.w, job.kern)
			}
		case passConj:
			for t := lo; t < hi; t++ {
				conjugate(job.batch[t])
			}
		case passConjScale:
			for t := lo; t < hi; t++ {
				conjugateScale(job.batch[t], job.scale)
			}
		}
	}
	if sc != nil {
		scratch.Put(sc)
	}
}

// runPass arms the job for one pass, hands it to every pool worker, and
// joins in the stealing itself until the pass completes — the barrier
// between passes. Work is chunked so each worker steals a handful of
// times per pass: enough granularity to rebalance, not enough to make
// the cursor contended.
func (e *Engine) runPass(job *batchJob, mode, stage int, units int64) {
	t0 := e.passStart()
	job.mode, job.stage, job.units = mode, stage, units
	job.chunk = max(units/int64(e.workers*4), 1)
	job.next.Store(0)
	job.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		e.jobs <- job
	}
	job.run(e.scratch)
	job.wg.Wait()
	e.passDone(passLabel(mode, job.kern), t0)
}

// checkBatch validates every array up front so a mid-batch panic cannot
// leave earlier transforms half-executed. A bad row panics with
// BatchLengthError, which names the row's batch index — serving-side
// 400s use it to say which request in a coalesced batch was malformed.
func checkBatch(pl *fft.Plan, batch [][]complex128, w []complex128) {
	if len(w) != pl.N/2 {
		panic(fft.LengthError("twiddle table", len(w), pl.N/2))
	}
	for i, d := range batch {
		if len(d) != pl.N {
			panic(fft.BatchLengthError(i, len(d), pl.N))
		}
	}
}

// TransformBatch applies the forward FFT in place to every array in
// batch — B independent pl.N-point transforms through one dispatch of
// the persistent worker pool. The arrays must be distinct (no aliasing);
// w must be fft.Twiddles(pl.N). Batches whose combined element count is
// below the threshold run serially on the caller's goroutine with one
// reused scratch. Output is bitwise identical to calling pl.Transform
// on each array in order.
func (e *Engine) TransformBatch(pl *fft.Plan, batch [][]complex128, w []complex128) {
	e.TransformBatchKernel(pl, batch, w, fft.KernelRadix2)
}

// TransformBatchKernel is TransformBatch with a selectable butterfly
// kernel; for a fixed kernel the output is bitwise identical to calling
// pl.TransformKernel on each array in order.
func (e *Engine) TransformBatchKernel(pl *fft.Plan, batch [][]complex128, w []complex128, kern fft.Kernel) {
	kern = kern.Concrete()
	checkBatch(pl, batch, w)
	if len(batch) == 0 {
		return
	}
	t0 := e.passStart()
	if e.workers <= 1 || len(batch)*pl.N < e.threshold {
		sc := getScratch(e.scratch, pl)
		for _, d := range batch {
			pl.TransformKernelWith(d, w, kern, sc)
		}
		e.scratch.Put(sc)
		e.batchDone(len(batch), pl.N, t0)
		return
	}
	e.ensurePool()
	job := jobPool.Get().(*batchJob)
	job.pl, job.batch, job.w, job.kern = pl, batch, w, kern
	if kern.SoA() {
		// SoA transforms are whole-pipeline units (each packs into its
		// own pooled frame), so the batch steals complete transforms
		// instead of (transform, task) pairs — same result bitwise,
		// since TransformSoA is partition-independent.
		pl.SoATwiddles(w)
		e.runPass(job, passWhole, 0, int64(len(batch)))
	} else {
		e.runPass(job, passBitRev, 0, int64(len(batch)))
		for s := 0; s < pl.NumStages; s++ {
			e.runPass(job, passStage, s, int64(len(batch))*int64(pl.TasksPerStage))
		}
	}
	e.releaseJob(job)
	e.batchDone(len(batch), pl.N, t0)
}

// InverseBatch applies the inverse FFT in place to every array in batch
// via the conjugation identity, with the conjugate and scale sweeps
// batched the same way (or, for the SoA kernels, folded into each
// transform's pack and unpack). Output is bitwise identical to calling
// pl.InverseTransform on each array in order.
func (e *Engine) InverseBatch(pl *fft.Plan, batch [][]complex128, w []complex128) {
	e.InverseBatchKernel(pl, batch, w, fft.KernelRadix2)
}

// InverseBatchKernel is InverseBatch with a selectable butterfly kernel.
func (e *Engine) InverseBatchKernel(pl *fft.Plan, batch [][]complex128, w []complex128, kern fft.Kernel) {
	kern = kern.Concrete()
	checkBatch(pl, batch, w)
	if len(batch) == 0 {
		return
	}
	t0 := e.passStart()
	if e.workers <= 1 || len(batch)*pl.N < e.threshold {
		sc := getScratch(e.scratch, pl)
		for _, d := range batch {
			pl.InverseTransformKernelWith(d, w, kern, sc)
		}
		e.scratch.Put(sc)
		e.batchDone(len(batch), pl.N, t0)
		return
	}
	e.ensurePool()
	job := jobPool.Get().(*batchJob)
	job.pl, job.batch, job.w, job.kern = pl, batch, w, kern
	if kern.SoA() {
		// One pass, like the forward: each whole-transform unit folds
		// the identity's two sweeps into its own pack and unpack.
		pl.SoATwiddles(w)
		e.runPass(job, passWholeInv, 0, int64(len(batch)))
	} else {
		e.runPass(job, passConj, 0, int64(len(batch)))
		e.runPass(job, passBitRev, 0, int64(len(batch)))
		for s := 0; s < pl.NumStages; s++ {
			e.runPass(job, passStage, s, int64(len(batch))*int64(pl.TasksPerStage))
		}
		job.scale = 1 / float64(pl.N)
		e.runPass(job, passConjScale, 0, int64(len(batch)))
	}
	e.releaseJob(job)
	e.batchDone(len(batch), pl.N, t0)
}

// batchDone reports one batched dispatch to the observer, if any.
func (e *Engine) batchDone(batch, n int, start time.Time) {
	if e.obs != nil {
		e.obs.ObserveBatch(batch, n, time.Since(start))
	}
}

// releaseJob drops the job's references to caller data before pooling
// it, so a recycled job cannot pin a batch's arrays, and keeps the
// Engine reachable until the last pass has fully drained (workers never
// reference the Engine, only the channel — see ensurePool).
func (e *Engine) releaseJob(job *batchJob) {
	job.pl, job.batch, job.w, job.kern = nil, nil, nil, 0
	jobPool.Put(job)
	runtime.KeepAlive(e)
}

// RealTransform computes the half-spectrum of the length-rp.N real
// signal src into dst (length rp.SpectrumLen()), running the packed
// N/2-point FFT through the engine — parallel above the threshold,
// serial below it, bitwise identical to rp.Transform either way. The
// O(N) pack and split passes run on the caller's goroutine.
func (e *Engine) RealTransform(rp *fft.RealPlan, dst []complex128, src []float64) {
	rp.Pack(dst, src)
	e.Transform(rp.Half, dst[:rp.N/2], rp.WHalf)
	rp.Unpack(dst)
}

// RealInverse recovers the length-rp.N real signal from its
// half-spectrum src into dst, running the inverse half transform
// through the engine. It allocates an N/2 work buffer; serving paths
// that must not allocate can use rp.InverseWith directly.
func (e *Engine) RealInverse(rp *fft.RealPlan, dst []float64, src []complex128) {
	work := make([]complex128, rp.N/2)
	rp.PreInverse(work, src)
	e.InverseTransform(rp.Half, work, rp.WHalf)
	rp.PostInverse(dst, work)
}
