// Batched execution: B independent transforms of one schedule. When the
// batch has a row for every worker, or its rows are too small to shard,
// it is dealt out whole — the caller and the pool's idle workers steal
// runs of rows off a shared cursor and execute each row's schedule
// serially, with no barrier at all; a few large rows instead run one
// after another through Run, sharding their passes. Which of the two
// happens follows from the batch and the engine, not from an option.
// The task and every stealer's fft.State come from sync.Pools, so the
// steady state allocates nothing — a property the AllocsPerRun guard in
// batch_test.go pins.
//
// Correctness story, same as Run: a row's schedule is deterministic
// under any partition and distinct rows are distinct arrays, so batched
// output is bitwise identical to the serial loop.
package host

import (
	"time"

	"codeletfft/internal/fft"
)

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
//     shard: whole transforms are stolen by the caller and the pool's
//     idle workers, reported as one pass under the schedule's stage
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

// steal deals the batch out whole: at most e.workers stealers — the
// caller and idle pool workers — each run complete rows. Rows are
// chunked so each stealer claims a handful of times: enough granularity
// to rebalance, not enough to make the cursor contended.
func (e *Engine) steal(s *fft.Schedule, batch [][]complex128) {
	t0 := e.passStart()
	t := taskPool.Get().(*task)
	t.s, t.batch = s, batch
	t.share(e.workers, len(batch), max(len(batch)/(e.workers*4), 1))
	// Drop the references to caller data before pooling the task, so a
	// recycled task cannot pin a batch's arrays.
	t.s, t.batch = nil, nil
	taskPool.Put(t)
	e.passDone(s.Stage, t0)
}
