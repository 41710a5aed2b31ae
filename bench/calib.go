package main

import "time"

// Calibration array sizes, in float64 elements per array (three arrays
// each): calibL2 is 3×0.5 MiB and stays inside a 4 MiB L2; calibMem is
// 3×8 MiB = 24 MiB, six times that L2.
const (
	calibL2Elems  = 1 << 16
	calibMemElems = 1 << 20
)

// calib is the normalisation kernel: a single-threaded pure-Go STREAM
// triad a[i] = b[i] + 3·c[i]. Run next to the ops of every round, it
// tells how fast this core and its memory system were at that moment,
// so op time can be reported in units of it.
type calib struct {
	a, b, c []float64
	chunk   int // passes per timed chunk, so a chunk is ≈ 1 ms or more
}

func newCalib(elems int) *calib {
	k := &calib{
		a:     make([]float64, elems),
		b:     make([]float64, elems),
		c:     make([]float64, elems),
		chunk: max(1, calibMemElems/elems/2),
	}
	for i := range k.b {
		k.b[i] = float64(i&1023) * 0.5
		k.c[i] = float64(i&511) * 0.25
	}
	k.pass() // first touch
	return k
}

func (k *calib) pass() {
	a, b, c := k.a, k.b[:len(k.a)], k.c[:len(k.a)]
	for i := range a {
		a[i] = b[i] + 3*c[i]
	}
}

// bytesPerPass is the triad's computed traffic: two loads and a store.
func (k *calib) bytesPerPass() float64 { return 24 * float64(len(k.a)) }

// run repeats the triad for about budget (at least five chunks) and
// returns the median time of one pass in nanoseconds.
func (k *calib) run(budget time.Duration) float64 {
	var chunks []float64
	start := time.Now()
	for len(chunks) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for p := 0; p < k.chunk; p++ {
			k.pass()
		}
		chunks = append(chunks, float64(time.Since(t0))/float64(k.chunk))
	}
	return median(chunks)
}
