// Package host executes fft plans in parallel on the real host machine —
// the repo's hardware counterpart to the fine-grain scheduling story the
// simulator tells. A stage of a staged plan consists of TasksPerStage
// butterfly tasks over pairwise-disjoint element sets, so the whole stage
// can be sharded across goroutines with nothing but a barrier at the
// stage boundary; the bit-reversal permutation decomposes into disjoint
// swap pairs and parallelizes the same way, as do the row and column
// passes of a 2-D plan.
//
// The engine is deliberately deterministic: every task performs exactly
// the arithmetic the serial path performs, on the same operands, so
// parallel output is bitwise identical to serial output regardless of
// worker count or scheduling — a property the test layer (and the
// FuzzParallelMatchesSerial fuzz target) checks exactly, not within a
// tolerance.
package host

import (
	"runtime"
	"sync"
	"time"

	"codeletfft/internal/fft"
)

// DefaultThreshold is the transform length (total elements for 2-D) below
// which the parallel entry points fall back to serial execution: under
// ~8Ki elements the goroutine dispatch and barrier cost rivals the
// butterfly work itself.
const DefaultThreshold = 1 << 13

// Pass labels reported to an Observer. Each is one lockstep pass of a
// parallel or batched execution — the unit separated by stage barriers.
const (
	PassBitRev = "bitrev" // bit-reversal permutation
	PassStage  = "stage"  // one butterfly stage
	PassConj   = "conj"   // inverse-path conjugation sweep
	PassScale  = "scale"  // inverse-path conjugate-and-scale sweep
	PassRows   = "rows"   // 2-D row-FFT pass
	PassCols   = "cols"   // 2-D column-FFT pass

	PassStageMixed = "stage_mixed" // one mixed-radix Stockham stage
	PassChirp      = "chirp"       // Bluestein chirp pre/post-multiply sweep

	// SoA-kernel passes: the split-plane pipeline replaces the plain
	// bit-reversal pass with a fused deinterleave+bitrev pack into the
	// planes, and adds a reinterleave pass at the end.
	PassSoAPack   = "soa_pack"   // deinterleave + bit-reverse into planes
	PassSoAUnpack = "soa_unpack" // reinterleave planes into the data array
)

// Observer receives execution telemetry from an Engine: one
// ObserveBatch per batched dispatch (occupancy = number of transforms
// coalesced into it) and one ObservePass per lockstep pass. Methods are
// called synchronously on the dispatching goroutine and must be cheap
// and concurrency-safe; implementations backed by atomic instruments
// (internal/metrics) satisfy both and keep the batch path
// allocation-free.
type Observer interface {
	// ObserveBatch reports one batched call: how many transforms it
	// coalesced, the transform length, and the wall time of the whole
	// dispatch.
	ObserveBatch(batch, n int, d time.Duration)
	// ObservePass reports one lockstep pass (PassBitRev, PassStage,
	// PassConj, PassScale) and its wall time.
	ObservePass(pass string, d time.Duration)
}

// Config tunes an Engine.
type Config struct {
	// Workers is the number of goroutines a parallel pass uses.
	// 0 means GOMAXPROCS.
	Workers int
	// Threshold is the minimum number of elements for which the parallel
	// path engages; smaller transforms run serially. 0 means
	// DefaultThreshold; 1 forces the parallel path for every size.
	Threshold int
	// Observer, when non-nil, receives batch-occupancy and pass-latency
	// telemetry from every parallel or batched call on the engine.
	Observer Observer
}

// Engine executes plans with a pool of worker goroutines. An Engine's
// configuration is immutable after New and an Engine is safe for
// concurrent use: simultaneous Transform calls on distinct data arrays
// simply run their own worker sets, and simultaneous batch calls share
// the persistent batch pool.
type Engine struct {
	workers   int
	threshold int
	obs       Observer

	// scratch recycles per-worker *fft.Scratch buffers across batch
	// calls so the steady state allocates nothing. It is a separate
	// allocation (not an inline field) so the persistent batch workers
	// can hold it without keeping the Engine itself reachable — the
	// Engine's finalizer is what shuts the workers down.
	scratch *sync.Pool

	// Persistent batch worker pool, created on the first batched call.
	poolOnce sync.Once
	jobs     chan *batchJob
}

// New builds an engine, applying the Config defaults.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	th := cfg.Threshold
	if th <= 0 {
		th = DefaultThreshold
	}
	return &Engine{workers: w, threshold: th, obs: cfg.Observer, scratch: new(sync.Pool)}
}

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// Threshold returns the resolved serial-fallback threshold.
func (e *Engine) Threshold() int { return e.threshold }

// passStart returns the timestamp observed passes measure from; the
// zero time when no observer is attached, so the hot path pays only a
// nil check. passDone reports the pass to the observer, if any.
func (e *Engine) passStart() time.Time {
	if e.obs == nil {
		return time.Time{}
	}
	return time.Now()
}

func (e *Engine) passDone(pass string, start time.Time) {
	if e.obs != nil {
		e.obs.ObservePass(pass, time.Since(start))
	}
}

// parallelFor splits [0,n) into one contiguous chunk per worker and runs
// fn(worker, lo, hi) for each chunk on its own goroutine, returning after
// all chunks complete — the stage barrier. Chunks are maximal (n/workers
// iterations each) so dispatch cost is one goroutine spawn per worker per
// pass, not per task. fn is called on the caller's goroutine when a
// single chunk suffices.
func (e *Engine) parallelFor(n int, fn func(worker, lo, hi int)) {
	nw := e.workers
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	chunk := (n + nw - 1) / nw
	var wg sync.WaitGroup
	for wk := 0; wk < nw; wk++ {
		lo := wk * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			fn(wk, lo, hi)
		}(wk, lo, hi)
	}
	wg.Wait()
}

// conjugate and conjugateScale are the two elementwise sweeps of the
// conjugation identity ifft(x) = conj(fft(conj(x)))/N.
func conjugate(d []complex128) {
	for i, v := range d {
		d[i] = complex(real(v), -imag(v))
	}
}

func conjugateScale(d []complex128, s float64) {
	for i, v := range d {
		d[i] = complex(real(v)*s, -imag(v)*s)
	}
}

// conj runs the identity's leading conjugation over data as one
// observed PassConj pass, sharded across the workers unless serial.
func (e *Engine) conj(data []complex128, serial bool) {
	t0 := e.passStart()
	if serial {
		conjugate(data)
	} else {
		e.parallelFor(len(data), func(_, lo, hi int) { conjugate(data[lo:hi]) })
	}
	e.passDone(PassConj, t0)
}

// conjScale runs the identity's trailing conjugate-and-scale over data
// as one observed PassScale pass.
func (e *Engine) conjScale(data []complex128, s float64, serial bool) {
	t0 := e.passStart()
	if serial {
		conjugateScale(data, s)
	} else {
		e.parallelFor(len(data), func(_, lo, hi int) { conjugateScale(data[lo:hi], s) })
	}
	e.passDone(PassScale, t0)
}

// bitReverse applies the bit-reversal permutation in parallel. Every swap
// pair {i, BitReverse(i)} is executed by exactly one worker — the one
// whose index range holds the smaller element — so the shards never touch
// a common element.
func (e *Engine) bitReverse(data []complex128, width int) {
	e.parallelFor(len(data), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			j := int(fft.BitReverse(int64(i), width))
			if j > i {
				data[i], data[j] = data[j], data[i]
			}
		}
	})
}

// Transform applies the staged forward FFT in place, sharding each
// stage's tasks across the worker pool with a WaitGroup barrier between
// stages. Transforms smaller than the threshold run serially. w must be
// fft.Twiddles(pl.N). Output is bitwise identical to pl.Transform.
func (e *Engine) Transform(pl *fft.Plan, data, w []complex128) {
	if len(data) != pl.N {
		panic(fft.LengthError("data", len(data), pl.N))
	}
	if pl.N < e.threshold || e.workers <= 1 {
		pl.Transform(data, w)
		return
	}
	t0 := e.passStart()
	e.bitReverse(data, pl.LogN)
	e.passDone(PassBitRev, t0)
	// Per-worker scratch, created on first use and reused across stages
	// (the inter-stage barrier orders the accesses).
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
				pl.RunTask(stage, task, data, w, nil, sc)
			}
		})
		e.passDone(PassStage, ts)
	}
}

// InverseTransform applies the inverse FFT in place via the conjugation
// identity, with the conjugation and scaling passes also sharded. Output
// is bitwise identical to pl.InverseTransform.
func (e *Engine) InverseTransform(pl *fft.Plan, data, w []complex128) {
	if len(data) != pl.N {
		panic(fft.LengthError("data", len(data), pl.N))
	}
	if pl.N < e.threshold || e.workers <= 1 {
		pl.InverseTransform(data, w)
		return
	}
	e.conj(data, false)
	e.Transform(pl, data, w)
	e.conjScale(data, 1/float64(pl.N), false)
}

// Transform2D applies the 2-D FFT in place (row-major data): rows are
// sharded across workers, then columns, each worker gathering into its
// own column buffer. Output is bitwise identical to p.Transform.
func (e *Engine) Transform2D(p *fft.Plan2D, data []complex128) {
	if len(data) != p.Rows*p.Cols {
		panic(fft.LengthError("2-D data", len(data), p.Rows*p.Cols))
	}
	if p.Rows*p.Cols < e.threshold || e.workers <= 1 {
		p.Transform(data)
		return
	}
	t0 := e.passStart()
	e.parallelFor(p.Rows, func(_, lo, hi int) {
		sc := fft.NewScratch(p.RowPlan)
		for r := lo; r < hi; r++ {
			p.RowPlan.TransformWith(data[r*p.Cols:(r+1)*p.Cols], p.WRow, sc)
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
			p.ColPlan.TransformWith(col, p.WCol, sc)
			for r := 0; r < p.Rows; r++ {
				data[r*p.Cols+c] = col[r]
			}
		}
	})
	e.passDone(PassCols, t1)
}

// InverseTransform2D applies the inverse 2-D FFT in place. Output is
// bitwise identical to p.InverseTransform.
func (e *Engine) InverseTransform2D(p *fft.Plan2D, data []complex128) {
	if len(data) != p.Rows*p.Cols {
		panic(fft.LengthError("2-D data", len(data), p.Rows*p.Cols))
	}
	if p.Rows*p.Cols < e.threshold || e.workers <= 1 {
		p.InverseTransform(data)
		return
	}
	e.conj(data, false)
	e.Transform2D(p, data)
	e.conjScale(data, 1/float64(p.Rows*p.Cols), false)
}
