package tune_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"codeletfft/internal/fft"
	"codeletfft/internal/tune"
)

func TestResolveMemoizesPerKey(t *testing.T) {
	tune.Reset()
	var calls atomic.Int64
	run := func(k fft.Kernel, data []complex128) { calls.Add(1) }
	key := tune.Key{N: 64, TaskSize: 8, Workers: 2}
	cands := fft.ConcreteKernels()

	first := tune.Resolve(key, cands, run)
	if first == fft.KernelAuto {
		t.Fatal("Resolve returned Auto")
	}
	after := calls.Load()
	if after == 0 {
		t.Fatal("measurement never ran")
	}
	// Second lookup: memo hit, run never called again.
	if got := tune.Resolve(key, cands, run); got != first {
		t.Fatalf("second Resolve %v != first %v", got, first)
	}
	if calls.Load() != after {
		t.Fatal("Resolve re-measured a memoized key")
	}
	// A different shape measures independently.
	tune.Resolve(tune.Key{N: 128, TaskSize: 8, Workers: 2}, cands, run)
	if calls.Load() == after {
		t.Fatal("distinct key did not measure")
	}
}

func TestResolveSingleCandidateSkipsMeasurement(t *testing.T) {
	tune.Reset()
	ran := false
	got := tune.Resolve(tune.Key{N: 32, TaskSize: 8, Workers: 1},
		[]fft.Kernel{fft.KernelRadix4},
		func(fft.Kernel, []complex128) { ran = true })
	if got != fft.KernelRadix4 {
		t.Fatalf("got %v", got)
	}
	if ran {
		t.Fatal("single candidate should not be measured")
	}
	if got := tune.Resolve(tune.Key{N: 32, TaskSize: 4, Workers: 1}, nil, nil); got != fft.KernelRadix2 {
		t.Fatalf("empty candidates resolved to %v, want radix2", got)
	}
	// The benchmark's tune.hit_ns probe resolves an unmemoized key with
	// nothing to time.
	if got := tune.Resolve(tune.Key{N: 4096, TaskSize: 64, Workers: 1}, fft.ConcreteKernels(), nil); got != fft.KernelRadix2 {
		t.Fatalf("nil run resolved to %v, want the first candidate", got)
	}
}

// TestResolveSingleFlight hammers one key from many goroutines: exactly
// one measurement may run, and every caller must see the same winner.
func TestResolveSingleFlight(t *testing.T) {
	tune.Reset()
	var measuring atomic.Int64
	var maxConcurrent atomic.Int64
	run := func(k fft.Kernel, data []complex128) {
		cur := measuring.Add(1)
		for {
			old := maxConcurrent.Load()
			if cur <= old || maxConcurrent.CompareAndSwap(old, cur) {
				break
			}
		}
		measuring.Add(-1)
	}
	key := tune.Key{N: 256, TaskSize: 64, Workers: 4}
	var wg sync.WaitGroup
	results := make([]fft.Kernel, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = tune.Resolve(key, fft.ConcreteKernels(), run)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw %v, caller 0 saw %v", i, results[i], results[0])
		}
	}
	if maxConcurrent.Load() > 1 {
		t.Fatalf("measurement closures overlapped (%d concurrent)", maxConcurrent.Load())
	}
	w := tune.Winners()
	if w[key] != results[0] {
		t.Fatalf("Winners()[%v] = %v, want %v", key, w[key], results[0])
	}
}

// TestResolveRunsRealTransforms wires a genuine transform closure and
// checks the winner actually computes a correct FFT — guarding against
// the tuner picking a kernel value the fft layer can't execute.
func TestResolveRunsRealTransforms(t *testing.T) {
	tune.Reset()
	const n, p = 1 << 10, 64
	pl, err := fft.NewPlan(n, p)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	win := tune.Resolve(tune.Key{N: n, TaskSize: p, Workers: 1}, fft.ConcreteKernels(),
		func(k fft.Kernel, data []complex128) { pl.TransformKernel(data, w, k) })

	data := make([]complex128, n)
	data[1] = 1 // impulse at 1: spectrum X[k] = W_N^k, |X[k]| = 1
	pl.TransformKernel(data, w, win)
	for k := range data {
		mag := real(data[k])*real(data[k]) + imag(data[k])*imag(data[k])
		if mag < 0.999 || mag > 1.001 {
			t.Fatalf("winner %v produced wrong spectrum at bin %d", win, k)
		}
	}
}
