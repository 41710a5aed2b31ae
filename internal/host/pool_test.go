package host

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"codeletfft/internal/fft"
)

// TestPoolConcurrentCallers: callers sharing the pool — through one
// engine, and through an engine each with its own split width — all get
// the serial bits, single arrays (sharded passes) and batches (stolen
// rows) alike. Under -race this is the gate for the task hand-off.
func TestPoolConcurrentCallers(t *testing.T) {
	const n, rows, callers = 1 << 11, 6, 8
	pl, err := fft.NewPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	for _, kern := range []fft.Kernel{fft.KernelRadix2, fft.KernelSoARadix4} {
		fwd, inv := pl.Schedule(w, kern, false), pl.Schedule(w, kern, true)
		shared := New(Config{Workers: 4, Threshold: 1})
		for _, distinct := range []bool{false, true} {
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					e := shared
					if distinct {
						e = New(Config{Workers: 1 + g, Threshold: 1})
					}
					for _, s := range []*fft.Schedule{fwd, inv} {
						x := noise(n*rows, int64(g))
						want := append([]complex128(nil), x...)
						batch := make([][]complex128, rows)
						for r := range batch {
							noErr(t, s.Run(want[r*n:(r+1)*n]))
							batch[r] = x[r*n : (r+1)*n]
						}
						noErr(t, e.Run(s, batch[0]))
						noErr(t, e.RunBatch(s, batch[1:]))
						if !sameBits(x, want) {
							t.Errorf("%v distinct=%v caller %d: shared-pool output differs from serial", kern, distinct, g)
						}
					}
				}(g)
			}
			wg.Wait()
		}
	}
}

// TestPoolNestedDoWhileBusy is the no-deadlock property: with every
// pool worker (and the caller) held inside a unit, a unit that itself
// calls Do still completes — it finds nobody idle and runs its own task.
func TestPoolNestedDoWhileBusy(t *testing.T) {
	// Start the pool.
	Do(2, &fft.Pass{Units: 2, Run: func(*fft.State, int, int) {}}, nil)
	held := cap(pool.work) + 1 // every worker, and the caller
	var entered sync.WaitGroup
	entered.Add(held)
	release := make(chan struct{})
	done := make(chan int64)
	go func() {
		var sum int64
		Do(held, &fft.Pass{Units: held, Run: func(_ *fft.State, lo, _ int) {
			entered.Done()
			if lo != 0 {
				<-release
				return
			}
			entered.Wait()
			var mu sync.Mutex
			Do(4, &fft.Pass{Units: 100, Run: func(_ *fft.State, lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					sum += int64(i)
				}
				mu.Unlock()
			}}, nil)
			close(release)
		}}, nil)
		done <- sum
	}()
	select {
	case sum := <-done:
		if sum != 4950 {
			t.Fatalf("nested Do summed %d, want 4950", sum)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a nested Do did not complete while every pool worker was busy")
	}
}

// TestWorkersBeyondPool: the split width only cuts the work — asking
// for more ways than the pool has workers (8 on a 2-proc pool, and 4×
// whatever this machine has) gives the bits of Workers: 1.
func TestWorkersBeyondPool(t *testing.T) {
	const n, rows = 1 << 12, 16
	pl, err := fft.NewPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	one := New(Config{Workers: 1, Threshold: 1})
	for _, workers := range []int{8, 4 * runtime.GOMAXPROCS(0)} {
		e := New(Config{Workers: workers, Threshold: 1})
		for _, inverse := range []bool{false, true} {
			s := pl.Schedule(w, fft.KernelSoARadix4, inverse)
			x := noise(n*rows, 99)
			want := append([]complex128(nil), x...)
			for _, run := range []struct {
				eng  *Engine
				data []complex128
			}{{one, want}, {e, x}} {
				batch := make([][]complex128, rows)
				for r := range batch {
					batch[r] = run.data[r*n : (r+1)*n]
				}
				noErr(t, run.eng.Run(s, batch[0]))
				noErr(t, run.eng.RunBatch(s, batch[1:]))
			}
			if !sameBits(x, want) {
				t.Errorf("workers=%d inverse=%v: output differs from Workers: 1", workers, inverse)
			}
		}
	}
}

// BenchmarkPassDispatch times one empty 64-unit pass through Do, so
// ns/op is ns per pass: the fixed cost of a sharded pass — hand-off,
// cursor and barrier — that a pass's work must outweigh before sharding
// it pays. At one worker it is the serial call.
func BenchmarkPassDispatch(b *testing.B) {
	empty := &fft.Pass{Units: 64, Run: func(*fft.State, int, int) {}}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			Do(workers, empty, nil) // start the pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Do(workers, empty, nil)
			}
		})
	}
}
