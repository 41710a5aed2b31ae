// Example serving sketches the request-serving workflow the options API
// targets: plans come from the process-wide cache instead of being
// hand-managed, same-size requests are batched through one dispatch,
// and real-valued signals take the packed half-size path.
//
//	go run ./examples/serving
//	go run ./examples/serving -logn 14 -batch 32 -workers 4
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"codeletfft"
)

// tally is a minimal EngineObserver: it counts batch dispatches and
// per-pass engine time, the same hook the serving daemon uses to feed
// its /metrics histograms.
type tally struct {
	batches  atomic.Int64
	requests atomic.Int64
	passNS   atomic.Int64
}

func (t *tally) ObserveBatch(batch, n int, d time.Duration) {
	t.batches.Add(1)
	t.requests.Add(int64(batch))
}

func (t *tally) ObservePass(pass string, d time.Duration) {
	t.passNS.Add(d.Nanoseconds())
}

func main() {
	var (
		logN    = flag.Int("logn", 12, "transform length: N=2^logn")
		batch   = flag.Int("batch", 64, "requests per batch")
		workers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	)
	flag.Parse()
	n := 1 << *logN

	// One call per request: the (N, kernel) core — stage decomposition
	// and twiddle tables — is built once and shared; only the lightweight
	// engine wrapper is per-call.
	obs := &tally{}
	h, err := codeletfft.CachedHostPlan(n,
		codeletfft.WithWorkers(*workers),
		codeletfft.WithObserver(obs))
	if err != nil {
		log.Fatal(err)
	}
	again, err := codeletfft.CachedHostPlan(n)
	if err != nil {
		log.Fatal(err)
	}
	_ = again
	fmt.Printf("plan cache holds %d core(s) after two lookups of one shape\n\n",
		codeletfft.PlanCacheLen())

	// A batch of same-size complex requests through one dispatch.
	rng := rand.New(rand.NewSource(1))
	reqs := make([][]complex128, *batch)
	for r := range reqs {
		reqs[r] = make([]complex128, n)
		for i := range reqs[r] {
			reqs[r][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	start := time.Now()
	if err := h.TransformBatch(reqs); err != nil {
		log.Fatal(err)
	}
	if err := h.InverseBatch(reqs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batched %d × N=2^%d forward+inverse in %v (%d workers)\n",
		*batch, *logN, time.Since(start), h.Workers())

	// A real-valued signal through the packed half-size path, via the
	// typed RealPlan facade (shares the cached half-size core).
	rp, err := codeletfft.CachedRealPlan(n,
		codeletfft.WithWorkers(*workers),
		codeletfft.WithObserver(obs))
	if err != nil {
		log.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)*5/float64(n)) + 0.5*rng.NormFloat64()
	}
	spec := make([]complex128, rp.SpectrumLen())
	if err := rp.Transform(spec, x); err != nil {
		log.Fatal(err)
	}
	peak, peakMag := 0, 0.0
	for k, c := range spec {
		if m := math.Hypot(real(c), imag(c)); m > peakMag {
			peak, peakMag = k, m
		}
	}
	back := make([]float64, n)
	if err := rp.Inverse(back, spec); err != nil {
		log.Fatal(err)
	}
	var rt float64
	for i := range back {
		if v := math.Abs(back[i] - x[i]); v > rt {
			rt = v
		}
	}
	fmt.Printf("real input: %d spectrum bins, peak at bin %d, round-trip error %.3g\n",
		len(spec), peak, rt)

	// The observer saw every engine dispatch above; the cache counters
	// saw every plan lookup. These are the exact numbers fftserved
	// exports on /metrics.
	hits, misses := codeletfft.PlanCacheStats()
	fmt.Printf("\ntelemetry: %d engine batches (%d transforms), %v in timed passes; plan cache %d hits / %d misses\n",
		obs.batches.Load(), obs.requests.Load(),
		time.Duration(obs.passNS.Load()), hits, misses)
}
