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
	e.TransformBatch(pl, batch, w)
	e.InverseBatch(pl, batch, w)

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
	// Forward: bitrev + NumStages stage passes. Inverse adds conj,
	// another bitrev+stages, and the scale pass.
	if got, want := obs.passes[PassBitRev], 2; got != want {
		t.Errorf("%s passes = %d, want %d", PassBitRev, got, want)
	}
	if got, want := obs.passes[PassStage], 2*pl.NumStages; got != want {
		t.Errorf("%s passes = %d, want %d", PassStage, got, want)
	}
	if obs.passes[PassConj] != 1 || obs.passes[PassScale] != 1 {
		t.Errorf("conj/scale passes = %d/%d, want 1/1", obs.passes[PassConj], obs.passes[PassScale])
	}
	if obs.zeroDur {
		t.Error("observer saw a negative duration")
	}
}

// TestObserverSerialFallback: below the threshold the batch runs
// serially but occupancy must still be reported — the serving daemon's
// coalescing proof reads this histogram.
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
	e.TransformBatch(pl, batch, w)
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.batches) != 1 || obs.batches[0] != batchSize {
		t.Fatalf("serial fallback batches = %v, want [%d]", obs.batches, batchSize)
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
	e.Transform(pl, data, w)
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
// sweeps, which must show up as PassConj and PassScale (the kernel path
// used to run them unobserved); the SoA kernels fold both into the pack
// and unpack, so their inverse reports exactly the forward's passes and
// no sweep at all — in the batch path too.
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
		obs := observe(func(e *Engine) {
			data := make([]complex128, n)
			data[1] = 1
			e.InverseTransformKernel(pl, data, w, k)
		})
		sweeps, pack := 1, 0
		if k.SoA() {
			sweeps, pack = 0, 1
		}
		if obs.passes[PassConj] != sweeps || obs.passes[PassScale] != sweeps {
			t.Errorf("%v inverse: conj/scale passes = %d/%d, want %d/%d",
				k, obs.passes[PassConj], obs.passes[PassScale], sweeps, sweeps)
		}
		if obs.passes[PassSoAPack] != pack || obs.passes[PassSoAUnpack] != pack || obs.passes[PassBitRev] != 1-pack {
			t.Errorf("%v inverse: pack/unpack/bitrev passes = %d/%d/%d, want %d/%d/%d", k,
				obs.passes[PassSoAPack], obs.passes[PassSoAUnpack], obs.passes[PassBitRev], pack, pack, 1-pack)
		}
		if got := obs.passes[StagePassLabel(k)]; got != pl.NumStages {
			t.Errorf("%v inverse: %s passes = %d, want %d", k, StagePassLabel(k), got, pl.NumStages)
		}

		obs = observe(func(e *Engine) {
			batch := [][]complex128{make([]complex128, n), make([]complex128, n), make([]complex128, n)}
			e.InverseBatchKernel(pl, batch, w, k)
		})
		if obs.passes[PassConj] != sweeps || obs.passes[PassScale] != sweeps {
			t.Errorf("%v inverse batch: conj/scale passes = %d/%d, want %d/%d",
				k, obs.passes[PassConj], obs.passes[PassScale], sweeps, sweeps)
		}
		if obs.zeroDur {
			t.Errorf("%v: observer saw a negative duration", k)
		}
	}
}
