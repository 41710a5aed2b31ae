// Example parallelhost times the host FFT library serially and on the
// parallel worker-pool engine — the real-hardware counterpart to the
// paper's fine-grain scheduling story — and verifies the two paths agree
// bitwise. Parallelism is a plan property, so the comparison builds a
// one-worker plan and a many-worker plan on the same butterfly kernel:
// the one -kernel names, or with -kernel auto the library's default for
// the length.
//
//	go run ./examples/parallelhost            # N=2^20, GOMAXPROCS workers
//	go run ./examples/parallelhost -logn 22 -workers 4 -kernel splitradix
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"runtime"
	"time"

	"codeletfft"
)

func main() {
	var (
		logN       = flag.Int("logn", 20, "transform length: N=2^logn")
		p          = flag.Int("p", 64, "task size (points per butterfly kernel)")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		reps       = flag.Int("reps", 3, "timed repetitions (best is reported)")
		kernelName = flag.String("kernel", "auto", "butterfly kernel: auto, radix2, radix4, splitradix, soa2, soa4")
	)
	flag.Parse()

	n := 1 << *logN
	kern, err := codeletfft.ParseKernel(*kernelName)
	if err != nil {
		log.Fatal(err)
	}
	h, err := codeletfft.NewHostPlan(n,
		codeletfft.WithTaskSize(*p),
		codeletfft.WithWorkers(*workers),
		codeletfft.WithKernel(kern))
	if err != nil {
		log.Fatal(err)
	}
	hs, err := codeletfft.NewHostPlan(n,
		codeletfft.WithTaskSize(*p),
		codeletfft.WithWorkers(1),
		codeletfft.WithKernel(kern))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	serialOut := append([]complex128(nil), x...)
	tSerial := best(*reps, func() { copy(serialOut, x); _ = hs.Transform(serialOut) })

	parallelOut := append([]complex128(nil), x...)
	tParallel := best(*reps, func() { copy(parallelOut, x); _ = h.Transform(parallelOut) })

	for i := range parallelOut {
		if math.Float64bits(real(parallelOut[i])) != math.Float64bits(real(serialOut[i])) ||
			math.Float64bits(imag(parallelOut[i])) != math.Float64bits(imag(serialOut[i])) {
			log.Fatalf("parallel output differs from serial at element %d", i)
		}
	}

	gflops := func(d time.Duration) float64 {
		return 5 * float64(n) * float64(*logN) / d.Seconds() / 1e9
	}
	fmt.Printf("N=2^%d P=%d kernel=%v on %d CPUs, %d workers\n", *logN, *p, h.Kernel(), runtime.NumCPU(), h.Workers())
	fmt.Printf("  serial    %10v  (%.2f GFLOPS)\n", tSerial, gflops(tSerial))
	fmt.Printf("  parallel  %10v  (%.2f GFLOPS)\n", tParallel, gflops(tParallel))
	fmt.Printf("  speedup   %.2fx  (outputs bitwise identical)\n",
		tSerial.Seconds()/tParallel.Seconds())
}

func best(reps int, fn func()) time.Duration {
	bestD := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < bestD {
			bestD = d
		}
	}
	return bestD
}
