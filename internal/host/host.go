// Package host executes fft schedules on the real host machine — the
// repo's hardware counterpart to the fine-grain scheduling story the
// simulator tells. A schedule (fft.Schedule) is an ordered list of
// passes whose units touch pairwise-disjoint elements, so a pass can be
// sharded across goroutines with nothing but a barrier at its end, and
// a batch of independent transforms can be dealt out whole. The package
// has exactly two execution entry points over any schedule: Engine.Run
// for one array and Engine.RunBatch for many. Both draw on the one
// worker pool the process has (pool.go), whose unit of work is a pass:
// Do runs one, and callers whose units are not a schedule's hand it an
// fft.Pass of their own.
//
// The engine is deliberately deterministic: every unit performs exactly
// the arithmetic the serial run performs, on the same operands, so
// output is bitwise identical to fft.Schedule.Run regardless of worker
// count, partition or batching — a property the conformance test (and
// the FuzzParallelMatchesSerial fuzz target) checks exactly, not within
// a tolerance.
package host

import (
	"runtime"
	"time"

	"codeletfft/internal/fft"
)

// DefaultThreshold is the element count (a schedule's span for one
// array, B spans for a batch) below which the entry points run
// serially: under ~8Ki elements the hand-off and barrier cost
// rivals the butterfly work itself.
const DefaultThreshold = 1 << 13

// Pass labels reported to an Observer — the schedule's own
// (fft.Pass.Label), re-exported for metric exporters that pre-register
// every label an engine may emit.
const (
	PassBitRev = fft.PassBitRev
	PassStage  = fft.PassStage
	PassConj   = fft.PassConj
	PassScale  = fft.PassScale
	PassRows   = fft.PassRows
	PassCols   = fft.PassCols

	PassFilter   = fft.PassFilter
	PassSegments = fft.PassSegments

	PassStageRadix4     = fft.PassStageRadix4
	PassStageSplitRadix = fft.PassStageSplitRadix
	PassStageSoA2       = fft.PassStageSoA2
	PassStageSoA4       = fft.PassStageSoA4
	PassStageMixed      = fft.PassStageMixed

	PassSoAPack   = fft.PassSoAPack
	PassSoAUnpack = fft.PassSoAUnpack
)

// StagePassLabel returns the Observer label of kern's butterfly passes.
func StagePassLabel(kern fft.Kernel) string { return fft.StageLabel(kern) }

// Observer receives execution telemetry from an Engine: one
// ObserveBatch per RunBatch call (occupancy = number of transforms in
// it) and one ObservePass per barrier-separated pass the engine
// dispatched to its workers. Serial runs report no passes. Methods are
// called synchronously on the dispatching goroutine and must be cheap
// and concurrency-safe; implementations backed by atomic instruments
// (internal/metrics) satisfy both and keep the batch path
// allocation-free.
type Observer interface {
	// ObserveBatch reports one batched call: how many transforms it
	// held, the transform length, and the wall time of the whole call.
	ObserveBatch(batch, n int, d time.Duration)
	// ObservePass reports one pass by its schedule label and its wall
	// time. A batch that deals whole transforms out to the workers is
	// one pass, under the schedule's stage label.
	ObservePass(pass string, d time.Duration)
}

// Config tunes an Engine.
type Config struct {
	// Workers is the most ways a call is split: a pass into that many
	// chunks, a batch among that many stealers. It never changes the
	// output, and the pool lends at most GOMAXPROCS workers whatever it
	// says. 0 means GOMAXPROCS.
	Workers int
	// Threshold is the minimum number of elements for which the parallel
	// path engages; smaller transforms run serially. 0 means
	// DefaultThreshold; 1 forces the parallel path for every size.
	Threshold int
	// Observer, when non-nil, receives batch-occupancy and pass-latency
	// telemetry from every parallel or batched call on the engine.
	Observer Observer
}

// Engine is a view of the process's worker pool (pool.go): how many
// ways to split a call, below what size not to split at all, and whom
// to tell. It owns no goroutines and no mutable state, so building one
// is free, and any number of engines — and of concurrent Run and
// RunBatch calls on each — share the pool's GOMAXPROCS workers.
type Engine struct {
	workers   int
	threshold int
	obs       Observer
}

// New builds an engine, applying the Config defaults.
func New(cfg Config) *Engine {
	e := Make(cfg)
	return &e
}

// Make is New by value, for a holder that embeds its engine and so
// builds it without an allocation.
func Make(cfg Config) Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	th := cfg.Threshold
	if th <= 0 {
		th = DefaultThreshold
	}
	return Engine{workers: w, threshold: th, obs: cfg.Observer}
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

// Run transforms data in place by schedule s. Schedules whose span
// (fft.Schedule.Span: N, or Bluestein's convolution length) is below
// the threshold, and every schedule on a one-worker engine, run
// serially on the caller's goroutine (fft.Schedule.Run); otherwise
// every pass is sharded across the workers with a barrier after it and
// reported to the observer. A wrong-length array is returned,
// untouched, as an error wrapping fft.ErrLengthMismatch. Output is
// bitwise identical to s.Run(data) either way.
func (e *Engine) Run(s *fft.Schedule, data []complex128) error {
	if s.Span() < e.threshold || e.workers <= 1 {
		return s.Run(data)
	}
	if err := s.Check(data); err != nil {
		return err
	}
	st := s.Acquire(data)
	for i := range s.Passes {
		t0 := e.passStart()
		Do(e.workers, &s.Passes[i], st)
		e.passDone(s.Passes[i].Label, t0)
	}
	st.Release()
	return nil
}

// The entry points below exist because the benchmark module compiles
// against them; each names a family's schedule and hands it to Run or
// RunBatch, and panics with the length error those return.

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// TransformKernel runs pl's forward schedule under kern on data. w must
// be fft.Twiddles(pl.N).
func (e *Engine) TransformKernel(pl *fft.Plan, data, w []complex128, kern fft.Kernel) {
	must(e.Run(pl.Schedule(w, kern, false), data))
}

// TransformBatchKernel runs pl's forward schedule under kern on every
// array of batch.
func (e *Engine) TransformBatchKernel(pl *fft.Plan, batch [][]complex128, w []complex128, kern fft.Kernel) {
	must(e.RunBatch(pl.Schedule(w, kern, false), batch))
}

// InverseBatchKernel runs pl's inverse schedule under kern on every
// array of batch.
func (e *Engine) InverseBatchKernel(pl *fft.Plan, batch [][]complex128, w []complex128, kern fft.Kernel) {
	must(e.RunBatch(pl.Schedule(w, kern, true), batch))
}

// MixedTransform runs mp's forward schedule on data.
func (e *Engine) MixedTransform(mp *fft.MixedPlan, data []complex128) {
	must(e.Run(mp.Schedule(false), data))
}

// BluesteinTransform runs bp's forward schedule on data. Its embedded
// convolution runs the mixed-radix stages, which run no kernel, so kern
// is ignored.
func (e *Engine) BluesteinTransform(bp *fft.BluesteinPlan, data []complex128, kern fft.Kernel) {
	must(e.Run(bp.Schedule(false), data))
}
