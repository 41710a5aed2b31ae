// Batched execution: B independent transforms of one schedule. When the
// batch has a row for every worker, or its rows are too small to shard,
// it is dealt out to a persistent worker pool — workers steal runs of
// rows off a shared atomic cursor and execute each row's schedule
// serially, with no barrier at all; a few large rows instead run one
// after another through Run, sharding their passes over every worker.
// Which of the two happens follows from the batch and the engine, not
// from an option. The
// per-call job and every worker's fft.State come from sync.Pools, so
// the steady state allocates nothing — a property the AllocsPerRun
// guard in batch_test.go pins.
//
// Correctness story, same as Run: a row's schedule is deterministic
// under any partition and distinct rows are distinct arrays, so batched
// output is bitwise identical to the serial loop.
package host

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/fft"
)

// batchJob carries one batched call through the worker pool and is
// recycled through jobPool afterwards.
type batchJob struct {
	s     *fft.Schedule
	batch [][]complex128
	chunk int64 // rows claimed per steal

	next atomic.Int64
	wg   sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(batchJob) }}

// ensurePool starts the persistent batch workers on first use. The
// workers hold only the jobs channel — not the Engine — so when the
// Engine becomes unreachable its finalizer closes the channel and the
// workers exit.
func (e *Engine) ensurePool() {
	e.poolOnce.Do(func() {
		jobs := make(chan *batchJob, e.workers)
		e.jobs = jobs
		for i := 0; i < e.workers; i++ {
			go func() {
				for job := range jobs {
					job.run()
					job.wg.Done()
				}
			}()
		}
		runtime.SetFinalizer(e, func(*Engine) { close(jobs) })
	})
}

// run claims runs of rows off the shared cursor until the batch is
// exhausted, executing each row's schedule serially on one State —
// acquired on the first claim, so a worker that arrives late takes no
// buffers from the pools.
func (job *batchJob) run() {
	rows := int64(len(job.batch))
	var st *fft.State
	for {
		lo := job.next.Add(job.chunk) - job.chunk
		if lo >= rows {
			break
		}
		if st == nil {
			st = job.s.Acquire(nil)
		}
		execRows(job.s, st, job.batch[lo:min(lo+job.chunk, rows)])
	}
	if st != nil {
		st.Release()
	}
}

// execRows runs s serially on each row in turn, reusing one State.
func execRows(s *fft.Schedule, st *fft.State, rows [][]complex128) {
	for _, row := range rows {
		st.Data = row
		s.Exec(st)
	}
}

// RunBatch transforms every array of batch in place by schedule s. The
// arrays must be distinct (no aliasing). Every row's length is checked
// before any is touched; a bad row panics with fft.BatchLengthError,
// which names its index. Then, by what the inputs allow:
//
//   - one worker, or a whole batch (rows × span) below the threshold:
//     the rows run serially on the caller's goroutine;
//   - at least as many rows as workers, or rows too small for Run to
//     shard: whole transforms are stolen from the persistent pool (the
//     caller joins in), reported as one pass under the schedule's stage
//     label — the rows are independent, so even a few of them are
//     parallel work;
//   - fewer rows than workers, each at or above the threshold: the rows
//     go through Run one after another, sharding their passes over all
//     the workers.
//
// One ObserveBatch reports the call. Output is bitwise identical to
// calling s.Run on each row in order.
func (e *Engine) RunBatch(s *fft.Schedule, batch [][]complex128) {
	for i, row := range batch {
		if len(row) != s.N {
			panic(fft.BatchLengthError(i, len(row), s.N))
		}
	}
	if len(batch) == 0 {
		return
	}
	t0 := e.passStart()
	switch {
	case e.workers <= 1 || len(batch)*s.Span() < e.threshold:
		st := s.Acquire(nil)
		execRows(s, st, batch)
		st.Release()
	case len(batch) >= e.workers || s.Span() < e.threshold:
		e.steal(s, batch)
	default:
		for _, row := range batch {
			e.Run(s, row)
		}
	}
	if e.obs != nil {
		e.obs.ObserveBatch(len(batch), s.N, time.Since(t0))
	}
}

// steal hands the batch to every pool worker and joins in the stealing
// itself until it is exhausted. Rows are chunked so each worker steals
// a handful of times: enough granularity to rebalance, not enough to
// make the cursor contended.
func (e *Engine) steal(s *fft.Schedule, batch [][]complex128) {
	e.ensurePool()
	t0 := e.passStart()
	job := jobPool.Get().(*batchJob)
	job.s, job.batch = s, batch
	job.chunk = max(int64(len(batch))/int64(e.workers*4), 1)
	job.next.Store(0)
	job.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		e.jobs <- job
	}
	job.run()
	job.wg.Wait()
	// Drop the references to caller data before pooling the job, so a
	// recycled job cannot pin a batch's arrays, and keep the Engine
	// reachable until the pass has fully drained (workers never
	// reference the Engine, only the channel — see ensurePool).
	job.s, job.batch = nil, nil
	jobPool.Put(job)
	runtime.KeepAlive(e)
	e.passDone(s.Stage, t0)
}
