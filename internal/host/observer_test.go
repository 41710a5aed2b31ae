package host

import (
	"sync"
	"testing"
	"time"

	"codeletfft/internal/fft"
)

// recObserver records every callback; safe for concurrent use so it can
// sit on an engine whose passes run from pool workers.
type recObserver struct {
	mu      sync.Mutex
	batches []int          // occupancy per ObserveBatch
	passes  map[string]int // count per pass label
	zeroDur bool           // any non-positive duration seen
}

func newRecObserver() *recObserver {
	return &recObserver{passes: make(map[string]int)}
}

func (o *recObserver) ObserveBatch(batch, n int, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.batches = append(o.batches, batch)
	if d < 0 {
		o.zeroDur = true
	}
}

func (o *recObserver) ObservePass(pass string, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.passes[pass]++
	if d < 0 {
		o.zeroDur = true
	}
}

// TestObserverBatchAndPasses: a batch with at least as many rows as
// workers is dealt out whole, so each dispatch reports its occupancy
// once and one pass under the schedule's stage label — none of the
// per-row passes.
func TestObserverBatchAndPasses(t *testing.T) {
	const n, batchSize = 256, 8
	pl, err := fft.NewPlan(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	obs := newRecObserver()
	e := New(Config{Workers: 4, Threshold: 1, Observer: obs})

	batch := make([][]complex128, batchSize)
	for i := range batch {
		batch[i] = make([]complex128, n)
		batch[i][1] = 1
	}
	noErr(t, e.RunBatch(pl.Schedule(w, fft.KernelRadix2, false), batch))
	noErr(t, e.RunBatch(pl.Schedule(w, fft.KernelRadix2, true), batch))

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.batches) != 2 {
		t.Fatalf("ObserveBatch called %d times, want 2", len(obs.batches))
	}
	for _, b := range obs.batches {
		if b != batchSize {
			t.Errorf("batch occupancy = %d, want %d", b, batchSize)
		}
	}
	if obs.passes[PassStage] != 2 || len(obs.passes) != 1 {
		t.Errorf("passes = %v, want two %q and nothing else", obs.passes, PassStage)
	}
	if obs.zeroDur {
		t.Error("observer saw a negative duration")
	}
}

// TestObserverSerialFallback: below the threshold the batch runs
// serially but occupancy must still be reported — the serving daemon's
// coalescing proof reads this histogram — while no pass is.
func TestObserverSerialFallback(t *testing.T) {
	const n, batchSize = 64, 3
	pl, err := fft.NewPlan(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	obs := newRecObserver()
	e := New(Config{Workers: 4, Threshold: 1 << 20, Observer: obs})
	batch := make([][]complex128, batchSize)
	for i := range batch {
		batch[i] = make([]complex128, n)
	}
	noErr(t, e.RunBatch(pl.Schedule(w, fft.KernelRadix2, false), batch))
	noErr(t, e.Run(pl.Schedule(w, fft.KernelRadix2, true), batch[0]))
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.batches) != 1 || obs.batches[0] != batchSize {
		t.Fatalf("serial fallback batches = %v, want [%d]", obs.batches, batchSize)
	}
	if len(obs.passes) != 0 {
		t.Fatalf("serial fallback reported passes %v, want none", obs.passes)
	}
}

// TestObserverParallelTransform covers the single-transform parallel
// path's pass telemetry.
func TestObserverParallelTransform(t *testing.T) {
	const n = 1 << 10
	pl, err := fft.NewPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	obs := newRecObserver()
	e := New(Config{Workers: 4, Threshold: 1, Observer: obs})
	data := make([]complex128, n)
	data[1] = 1
	noErr(t, e.Run(pl.Schedule(w, fft.KernelRadix2, false), data))
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.passes[PassBitRev] != 1 {
		t.Errorf("bitrev passes = %d, want 1", obs.passes[PassBitRev])
	}
	if obs.passes[PassStage] != pl.NumStages {
		t.Errorf("stage passes = %d, want %d", obs.passes[PassStage], pl.NumStages)
	}
}

// TestObserverInversePasses: every parallel inverse reports all of its
// passes. The scalar kernels run the conjugation identity as two extra
// sweeps, which must show up as PassConj and PassScale; the SoA kernels
// fold both into the pack and the last blocked pass's store, so their
// inverse reports exactly the forward's passes and no sweep at all. A
// batch with fewer rows than workers goes through the same path row by
// row.
func TestObserverInversePasses(t *testing.T) {
	const n = 1 << 10
	pl, err := fft.NewPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	observe := func(run func(*Engine)) *recObserver {
		obs := newRecObserver()
		run(New(Config{Workers: 4, Threshold: 1, Observer: obs}))
		return obs
	}
	for _, k := range fft.ConcreteKernels() {
		inv := pl.Schedule(w, k, true)
		stages := pl.NumStages
		sweeps, pack := 1, 0
		if k.SoA() {
			sweeps, pack = 0, 1
			stages = len(inv.Passes) - 1
		}
		for rows := 1; rows <= 3; rows += 2 {
			obs := observe(func(e *Engine) {
				batch := make([][]complex128, rows)
				for i := range batch {
					batch[i] = make([]complex128, n)
					batch[i][1] = 1
				}
				if rows == 1 {
					noErr(t, e.Run(inv, batch[0]))
				} else {
					noErr(t, e.RunBatch(inv, batch))
				}
			})
			if obs.passes[PassConj] != rows*sweeps || obs.passes[PassScale] != rows*sweeps {
				t.Errorf("%v inverse ×%d: conj/scale passes = %d/%d, want %d each",
					k, rows, obs.passes[PassConj], obs.passes[PassScale], rows*sweeps)
			}
			if obs.passes[PassSoAPack] != rows*pack || obs.passes[PassSoAUnpack] != 0 || obs.passes[PassBitRev] != rows*(1-pack) {
				t.Errorf("%v inverse ×%d: pack/unpack/bitrev passes = %d/%d/%d, want %d/0/%d", k, rows,
					obs.passes[PassSoAPack], obs.passes[PassSoAUnpack], obs.passes[PassBitRev], rows*pack, rows*(1-pack))
			}
			if got := obs.passes[StagePassLabel(k)]; got != rows*stages {
				t.Errorf("%v inverse ×%d: %s passes = %d, want %d", k, rows, StagePassLabel(k), got, rows*stages)
			}
			if obs.zeroDur {
				t.Errorf("%v: observer saw a negative duration", k)
			}
		}
	}
}
