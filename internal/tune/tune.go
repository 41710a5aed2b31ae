// This package has no production caller: the facade resolves KernelAuto
// by a rule (fft.AutoKernel) when it builds a plan. The benchmark's
// tune.* probes, its Reset between set-ups and its "tuned" line are all
// that compile against it, and it leaves with those rows (ROADMAP item
// 1's benchmark refresh).

// Package tune is a one-shot kernel autotuner: the first time a shape
// (N, taskSize, workers) is resolved, it races the candidate kernels on
// a deterministic input and memoizes the winner for the life of the
// process. Subsequent lookups for the same shape are a map hit — the
// measurement runs exactly once per shape, single-flight, no matter how
// many goroutines ask concurrently.
//
// The package deliberately knows nothing about engines or plans: the
// caller supplies a closure that runs one forward transform with a given
// kernel, so the measurement exercises exactly the execution path
// (worker count, threshold, scheduling) the caller chose.
package tune

import (
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/fft"
)

// Key identifies one tuned plan shape. Workers must be the resolved
// worker count (not 0-meaning-GOMAXPROCS) so the memo can't conflate
// differently-parallel configurations.
type Key struct {
	N        int
	TaskSize int
	Workers  int
}

type entry struct {
	once sync.Once
	kern atomic.Int32 // 0 until measured; then a concrete fft.Kernel
}

var (
	mu      sync.Mutex
	entries = map[Key]*entry{}
)

// Resolve returns the winning kernel for key, measuring on first use.
// run must execute one forward transform of data (length key.N) with
// the given kernel; it is called several times per candidate during
// measurement and never again after. candidates must be concrete
// kernels; an empty slice resolves to KernelRadix2, and a nil run —
// what the benchmark's tune.hit_ns probe passes, for a key nothing
// memoizes ahead of it any more — to the first candidate. Concurrent
// Resolve calls for the same key block on one measurement
// (single-flight); different keys measure independently.
func Resolve(key Key, candidates []fft.Kernel, run func(fft.Kernel, []complex128)) fft.Kernel {
	mu.Lock()
	e := entries[key]
	if e == nil {
		e = &entry{}
		entries[key] = e
	}
	mu.Unlock()
	e.once.Do(func() { e.kern.Store(int32(measure(key, candidates, run))) })
	return fft.Kernel(e.kern.Load())
}

// measure times each candidate on a deterministic pseudo-random input:
// one warmup transform (pays lazy initialization), then two timed rounds
// of reps transforms each, scoring the minimum round (min-of-rounds is
// robust against one-off scheduler noise). Small transforms get more
// reps so the timed region stays well above timer resolution.
func measure(key Key, candidates []fft.Kernel, run func(fft.Kernel, []complex128)) fft.Kernel {
	if len(candidates) == 0 {
		return fft.KernelRadix2
	}
	if len(candidates) == 1 || run == nil {
		return candidates[0].Concrete()
	}
	n := key.N
	input := make([]complex128, n)
	s := uint64(n)*2862933555777941757 + 3037000493
	for i := range input {
		s = s*6364136223846793005 + 1442695040888963407
		re := float64(int32(s>>32)) / float64(1<<31)
		s = s*6364136223846793005 + 1442695040888963407
		im := float64(int32(s>>32)) / float64(1<<31)
		input[i] = complex(re, im)
	}
	reps := (1 << 21) / n
	if reps < 1 {
		reps = 1
	} else if reps > 8 {
		reps = 8
	}

	buf := make([]complex128, n)
	best := candidates[0].Concrete()
	var bestScore time.Duration
	for ci, k := range candidates {
		k = k.Concrete()
		copy(buf, input)
		run(k, buf) // warmup
		var score time.Duration
		for round := 0; round < 2; round++ {
			var elapsed time.Duration
			for r := 0; r < reps; r++ {
				copy(buf, input)
				start := time.Now()
				run(k, buf)
				elapsed += time.Since(start)
			}
			if round == 0 || elapsed < score {
				score = elapsed
			}
		}
		if ci == 0 || score < bestScore {
			bestScore = score
			best = k
		}
	}
	return best
}

// Winners returns a snapshot of every shape that has finished measuring
// and the kernel it resolved to.
func Winners() map[Key]fft.Kernel {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[Key]fft.Kernel, len(entries))
	for k, e := range entries {
		if v := e.kern.Load(); v != 0 {
			out[k] = fft.Kernel(v)
		}
	}
	return out
}

// Reset clears the memo: the next Resolve of each key measures again.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	entries = map[Key]*entry{}
}
