package host_test

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

func batchNoise(b, n int, seed int64) [][]complex128 {
	rng := rand.New(rand.NewSource(seed))
	batch := make([][]complex128, b)
	for t := range batch {
		d := make([]complex128, n)
		for i := range d {
			d[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		batch[t] = d
	}
	return batch
}

func cloneBatch(batch [][]complex128) [][]complex128 {
	out := make([][]complex128, len(batch))
	for t, d := range batch {
		out[t] = append([]complex128(nil), d...)
	}
	return out
}

func batchesEqualBits(a, b [][]complex128) bool {
	for t := range a {
		for i := range a[t] {
			if math.Float64bits(real(a[t][i])) != math.Float64bits(real(b[t][i])) ||
				math.Float64bits(imag(a[t][i])) != math.Float64bits(imag(b[t][i])) {
				return false
			}
		}
	}
	return true
}

// TestTransformBatchMatchesSerial pins the batched engine's contract:
// bitwise identical to a serial loop of pl.Transform, across regular
// and irregular plan shapes, batch sizes above and below the worker
// count, and both the parallel and serial-fallback paths.
func TestTransformBatchMatchesSerial(t *testing.T) {
	cases := []struct {
		n, p, b, workers, threshold int
	}{
		{64, 8, 16, 4, 1},      // parallel, B >> workers
		{128, 8, 3, 8, 1},      // irregular final stage, B < workers
		{256, 64, 1, 4, 1},     // single-element batch
		{64, 2, 5, 4, 1 << 20}, // forced serial fallback
		{1024, 64, 9, 2, 1},    // B not a multiple of workers
	}
	for _, tc := range cases {
		pl, err := fft.NewPlan(tc.n, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		w := fft.Twiddles(tc.n)
		eng := host.New(host.Config{Workers: tc.workers, Threshold: tc.threshold})

		batch := batchNoise(tc.b, tc.n, int64(tc.n+tc.b))
		want := cloneBatch(batch)
		for _, d := range want {
			pl.Transform(d, w)
		}
		eng.TransformBatchKernel(pl, batch, w, fft.KernelRadix2)
		if !batchesEqualBits(batch, want) {
			t.Fatalf("N=%d P=%d B=%d workers=%d: batch diverged from serial loop",
				tc.n, tc.p, tc.b, tc.workers)
		}

		for _, d := range want {
			pl.InverseTransform(d, w)
		}
		eng.InverseBatchKernel(pl, batch, w, fft.KernelRadix2)
		if !batchesEqualBits(batch, want) {
			t.Fatalf("N=%d P=%d B=%d workers=%d: inverse batch diverged",
				tc.n, tc.p, tc.b, tc.workers)
		}
	}
}

func TestTransformBatchEmpty(t *testing.T) {
	pl, _ := fft.NewPlan(64, 8)
	eng := host.New(host.Config{Workers: 4, Threshold: 1})
	eng.TransformBatchKernel(pl, nil, fft.Twiddles(64), fft.KernelRadix2)
	eng.InverseBatchKernel(pl, [][]complex128{}, fft.Twiddles(64), fft.KernelRadix2)
}

// TestBatchConcurrentCalls exercises the process's worker pool from
// several goroutines at once — the race-detector gate for the batch
// task's channel/WaitGroup protocol.
func TestBatchConcurrentCalls(t *testing.T) {
	const n, b = 256, 6
	pl, err := fft.NewPlan(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	eng := host.New(host.Config{Workers: 3, Threshold: 1})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := batchNoise(b, n, int64(g))
			want := cloneBatch(batch)
			for _, d := range want {
				pl.Transform(d, w)
			}
			for rep := 0; rep < 5; rep++ {
				work := cloneBatch(batch)
				eng.TransformBatchKernel(pl, work, w, fft.KernelRadix2)
				if !batchesEqualBits(work, want) {
					t.Errorf("goroutine %d rep %d: batch output diverged", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchZeroAllocs is the acceptance guard: after warm-up, the
// batched hot path performs zero allocations per call. GC is disabled
// around the measurement so a collection cannot empty the sync.Pools
// mid-run.
func TestBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n, b = 4096, 16
	pl, err := fft.NewPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	eng := host.New(host.Config{Workers: 4, Threshold: 1})
	batch := batchNoise(b, n, 1)

	// Warm-up: start the pool, fill the State and scratch pools, fault
	// in the job object.
	for i := 0; i < 3; i++ {
		eng.TransformBatchKernel(pl, batch, w, fft.KernelRadix2)
		eng.InverseBatchKernel(pl, batch, w, fft.KernelRadix2)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(10, func() {
		eng.TransformBatchKernel(pl, batch, w, fft.KernelRadix2)
	}); allocs != 0 {
		t.Fatalf("TransformBatch allocates %v objects per call in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		eng.InverseBatchKernel(pl, batch, w, fft.KernelRadix2)
	}); allocs != 0 {
		t.Fatalf("InverseBatch allocates %v objects per call in steady state, want 0", allocs)
	}
	// The serial fallback must be allocation-free too.
	serial := host.New(host.Config{Workers: 1})
	serial.TransformBatchKernel(pl, batch, w, fft.KernelRadix2)
	if allocs := testing.AllocsPerRun(10, func() {
		serial.TransformBatchKernel(pl, batch, w, fft.KernelRadix2)
	}); allocs != 0 {
		t.Fatalf("serial TransformBatch allocates %v objects per call, want 0", allocs)
	}
}

// TestArbitraryNZeroAllocs is the same guard for single arrays of the
// arbitrary-N and 2-D schedules: their work buffers (the Stockham
// ping-pong partner, Bluestein's M-point convolution array, a 2-D
// plan's column staging and per-unit scratch) are pooled, and the pool
// runs each sharded pass as the schedule's own Pass on the one State,
// so a steady-state transform allocates nothing on a serial engine and
// on a parallel one alike.
func TestArbitraryNZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	mp, err := fft.NewMixedPlan(3 << 10)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := fft.NewBluesteinPlan(1<<11 + 3)
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols = 64, 128
	soa4, radix4 := rowCol(t, rows, cols, 64, fft.KernelSoARadix4), rowCol(t, rows, cols, 64, fft.KernelRadix4)
	mixed := batchNoise(1, mp.N, 2)[0]
	blue := batchNoise(1, bp.N, 3)[0]
	grid := batchNoise(1, rows*cols, 4)[0]
	ops := []struct {
		name string
		s    *fft.Schedule
		data []complex128
	}{
		{"mixed forward", mp.Schedule(false), mixed},
		{"mixed inverse", mp.Schedule(true), mixed},
		{"bluestein forward", bp.Schedule(false), blue},
		{"bluestein inverse", bp.Schedule(true), blue},
		{"2-D soa4 forward", soa4(false), grid},
		{"2-D soa4 inverse", soa4(true), grid},
		{"2-D radix4 forward", radix4(false), grid},
	}
	serial := host.New(host.Config{Workers: 1})
	par := host.New(host.Config{Workers: 3, Threshold: 1})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, op := range ops {
		noErr(t, serial.Run(op.s, op.data)) // warm the pools and the plan's split twiddles
		if allocs := testing.AllocsPerRun(10, func() { _ = serial.Run(op.s, op.data) }); allocs != 0 {
			t.Errorf("serial %s allocates %v objects per call in steady state, want 0", op.name, allocs)
		}
		noErr(t, par.Run(op.s, op.data))
		if allocs := testing.AllocsPerRun(10, func() { _ = par.Run(op.s, op.data) }); allocs != 0 {
			t.Errorf("parallel %s allocates %v objects per call in steady state, want 0", op.name, allocs)
		}
	}
}

// TestEngineRealMatchesPlan pins the real-input composition the facade
// runs — the packing copy, the half schedule on the engine, split unpack — to
// the serial RealPlan path bitwise (the half transform is the
// deterministic parallel engine) and checks the engine-side round trip.
func TestEngineRealMatchesPlan(t *testing.T) {
	const n = 1 << 14
	rp, err := fft.NewRealPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	eng := host.New(host.Config{Workers: 4, Threshold: 1})

	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]complex128, rp.SpectrumLen())
	noErr(t, rp.Transform(want, x))
	got := make([]complex128, rp.SpectrumLen())
	for j := range n / 2 {
		got[j] = complex(x[2*j], x[2*j+1])
	}
	noErr(t, eng.Run(rp.Half.Schedule(rp.WHalf, fft.KernelRadix2, false), got[:n/2]))
	rp.Unpack(got)
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("engine RFFT diverged from serial at bin %d", i)
		}
	}

	back := make([]float64, n)
	work := make([]complex128, n/2)
	rp.PreInverse(work, got)
	noErr(t, eng.Run(rp.Half.Schedule(rp.WHalf, fft.KernelRadix2, true), work))
	for j, v := range work {
		back[2*j], back[2*j+1] = real(v), imag(v)
	}
	for i := range back {
		if math.Abs(back[i]-x[i]) > 1e-10 {
			t.Fatalf("engine real round trip diverged at %d: %g vs %g", i, back[i], x[i])
		}
	}
}
