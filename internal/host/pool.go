// The process's one worker pool: GOMAXPROCS goroutines, started by the
// first call that has work to share and never stopped, that every
// engine, every concurrent call and internal/ooc's tile kernels draw
// on — the host's version of the paper's one codelet pool per chip.
//
// A call is one task: units [0, n) behind an atomic cursor that hands
// them out a chunk at a time. The caller offers the task to workers
// that are idle, works through the cursor itself, and then waits only
// for the workers that took the offer. Nobody ever waits for a busy
// worker, so callers can be as many as they like and still share
// GOMAXPROCS workers, a unit may itself call into the pool (its task
// gets whoever is idle, at worst nobody), and a saturated pool degrades
// to each caller running its own task serially.
package host

import (
	"runtime"
	"sync"
	"sync/atomic"

	"codeletfft/internal/fft"
)

// task is one call's work. It is recycled through taskPool, so the
// steady state of a dispatch allocates nothing.
type task struct {
	// fn runs units [lo, hi) — Do's closure. A nil fn means the units
	// are the rows of batch, each run whole by schedule s.
	fn    func(lo, hi int)
	s     *fft.Schedule
	batch [][]complex128

	n, chunk int64          // units, and units claimed per cursor advance
	next     atomic.Int64   // the cursor
	helpers  sync.WaitGroup // pool workers that took the task
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

// pool is the worker set. idle counts workers not holding a task: a
// caller takes one off it per hand-off, so a task is only ever queued
// for a worker that is at, or on its way back to, the receive — which
// is why work, buffered one slot per worker, never blocks a sender.
var pool struct {
	start sync.Once
	work  chan *task
	idle  atomic.Int64
}

func startPool() {
	n := runtime.GOMAXPROCS(0)
	pool.work = make(chan *task, n)
	pool.idle.Store(int64(n))
	for i := 0; i < n; i++ {
		go func() {
			for t := range pool.work {
				t.drain()
				// Idle before done: the caller's next pass must find
				// the workers that just finished this one.
				pool.idle.Add(1)
				t.helpers.Done()
			}
		}()
	}
}

// share runs the n units of t, chunk at a time, on the caller and on as
// many idle workers as bring the stealers to at most ways.
func (t *task) share(ways, n, chunk int) {
	pool.start.Do(startPool)
	t.n, t.chunk = int64(n), int64(chunk)
	t.next.Store(0)
	for h := min(ways, (n+chunk-1)/chunk) - 1; h > 0; h-- {
		if pool.idle.Add(-1) < 0 {
			pool.idle.Add(1)
			break
		}
		t.helpers.Add(1)
		pool.work <- t
	}
	t.drain()
	t.helpers.Wait()
}

// drain claims chunks off the cursor until none are left. A batch task
// runs each row's schedule serially on one State, acquired on the first
// claim — a stealer that arrives late takes no buffers from the pools.
func (t *task) drain() {
	var st *fft.State
	for {
		lo := t.next.Add(t.chunk) - t.chunk
		if lo >= t.n {
			break
		}
		hi := min(lo+t.chunk, t.n)
		if t.fn != nil {
			t.fn(int(lo), int(hi))
			continue
		}
		if st == nil {
			st = t.s.Acquire(nil)
		}
		execRows(t.s, st, t.batch[lo:hi])
	}
	if st != nil {
		st.Release()
	}
}

// Do runs fn(lo, hi) over [0, n) cut into at most workers contiguous
// chunks of equal size, on the caller and on idle pool workers, and
// returns when every chunk has run — a pass and its barrier. The chunks
// must touch disjoint data. fn runs on the caller's goroutine when one
// chunk suffices.
func Do(workers, n int, fn func(lo, hi int)) {
	ways := min(workers, n)
	if ways <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	t := taskPool.Get().(*task)
	t.fn = fn
	t.share(ways, n, (n+ways-1)/ways)
	t.fn = nil
	taskPool.Put(t)
}
