// Facade-level arbitrary-N tests: NewHostPlan must plan every positive
// length, route it to the right engine (staged, mixed-radix, or
// Bluestein), keep the determinism contract across serial/parallel/
// batched execution, and share cores safely through CachedHostPlan
// under concurrent churn over a mixed power-of-two/composite/prime
// length stream.
package codeletfft_test

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"codeletfft"
)

// TestNewHostPlanEveryLength is the exhaustive acceptance loop: every
// 1 ≤ n ≤ 512 plans successfully, matches the O(N²) reference DFT, and
// inverts back to the input.
func TestNewHostPlanEveryLength(t *testing.T) {
	for n := 1; n <= 512; n++ {
		h, err := codeletfft.NewHostPlan(n)
		if err != nil {
			t.Fatalf("NewHostPlan(%d): %v", n, err)
		}
		if h.N() != n {
			t.Fatalf("NewHostPlan(%d).N() = %d", n, h.N())
		}
		x := noise(n, int64(n))
		want := codeletfft.DFT(x)
		var peak float64
		for _, v := range want {
			if m := math.Hypot(real(v), imag(v)); m > peak {
				peak = m
			}
		}
		if peak == 0 {
			peak = 1
		}
		data := append([]complex128(nil), x...)
		if err := h.Transform(data); err != nil {
			t.Fatalf("Transform(n=%d): %v", n, err)
		}
		if e := math.Sqrt(maxErr(data, want)); e > 1e-9*peak {
			t.Fatalf("n=%d (%s): facade vs DFT error %g exceeds 1e-9 of peak %g",
				n, h.Algorithm(), e, peak)
		}
		if err := h.Inverse(data); err != nil {
			t.Fatalf("Inverse(n=%d): %v", n, err)
		}
		if e := math.Sqrt(maxErr(data, x)); e > 1e-9 {
			t.Fatalf("n=%d (%s): round-trip error %g", n, h.Algorithm(), e)
		}
	}
}

// TestHostPlanAlgorithmRouting pins which engine each length family
// resolves to.
func TestHostPlanAlgorithmRouting(t *testing.T) {
	cases := []struct {
		n      int
		prefix string
	}{
		{256, "staged"},
		{1, "mixed-radix"},
		{12, "mixed-radix"},
		{1000, "mixed-radix"},
		{11, "bluestein"},
		{1009, "bluestein"},
	}
	for _, c := range cases {
		h, err := codeletfft.NewHostPlan(c.n)
		if err != nil {
			t.Fatalf("NewHostPlan(%d): %v", c.n, err)
		}
		if !strings.HasPrefix(h.Algorithm(), c.prefix) {
			t.Fatalf("NewHostPlan(%d).Algorithm() = %q, want prefix %q", c.n, h.Algorithm(), c.prefix)
		}
	}
}

// TestHostPlanHugeLengths plans the two sizes the issue calls out — the
// 5-smooth million and the prime 2^20+7 — and round-trips both.
func TestHostPlanHugeLengths(t *testing.T) {
	if testing.Short() {
		t.Skip("large transforms skipped in -short mode")
	}
	for _, c := range []struct {
		n      int
		prefix string
	}{
		{1000000, "mixed-radix"},
		{1<<20 + 7, "bluestein"},
	} {
		h, err := codeletfft.NewHostPlan(c.n)
		if err != nil {
			t.Fatalf("NewHostPlan(%d): %v", c.n, err)
		}
		if !strings.HasPrefix(h.Algorithm(), c.prefix) {
			t.Fatalf("NewHostPlan(%d).Algorithm() = %q, want prefix %q", c.n, h.Algorithm(), c.prefix)
		}
		x := noise(c.n, int64(c.n))
		data := append([]complex128(nil), x...)
		if err := h.Transform(data); err != nil {
			t.Fatalf("Transform(n=%d): %v", c.n, err)
		}
		if err := h.Inverse(data); err != nil {
			t.Fatalf("Inverse(n=%d): %v", c.n, err)
		}
		if e := math.Sqrt(maxErr(data, x)); e > 1e-8 {
			t.Fatalf("n=%d: round-trip error %g", c.n, e)
		}
	}
}

// TestMixedFacadeBitwise: for one mixed-radix plan shape, the serial,
// parallel, and batched facade paths all produce identical bits.
func TestMixedFacadeBitwise(t *testing.T) {
	const n = 3072 // 3·2^10
	serial, err := codeletfft.NewHostPlan(n, codeletfft.WithWorkers(1))
	if err != nil {
		t.Fatalf("NewHostPlan serial: %v", err)
	}
	parallel, err := codeletfft.NewHostPlan(n,
		codeletfft.WithWorkers(4), codeletfft.WithThreshold(1))
	if err != nil {
		t.Fatalf("NewHostPlan parallel: %v", err)
	}
	x := noise(n, 31)
	want := append([]complex128(nil), x...)
	if err := serial.Transform(want); err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), x...)
	if err := parallel.Transform(got); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("parallel mixed-radix transform differs bitwise from serial")
	}

	batch := [][]complex128{
		append([]complex128(nil), x...),
		append([]complex128(nil), x...),
		append([]complex128(nil), x...),
	}
	if err := parallel.TransformBatch(batch); err != nil {
		t.Fatal(err)
	}
	for r := range batch {
		if !sameBits(batch[r], want) {
			t.Fatalf("batched mixed-radix row %d differs bitwise from serial", r)
		}
	}

	if err := serial.Inverse(want); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Inverse(got); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("parallel mixed-radix inverse differs bitwise from serial")
	}
}

// TestBluesteinFacadeBitwise: the Bluestein facade path, here on the
// radix-2 reference kernel, is bitwise-deterministic across engine
// shapes.
func TestBluesteinFacadeBitwise(t *testing.T) {
	const n = 1009 // prime
	pin := codeletfft.WithKernel(codeletfft.KernelRadix2)
	serial, err := codeletfft.NewHostPlan(n, codeletfft.WithWorkers(1), pin)
	if err != nil {
		t.Fatalf("NewHostPlan serial: %v", err)
	}
	parallel, err := codeletfft.NewHostPlan(n,
		codeletfft.WithWorkers(4), codeletfft.WithThreshold(1), pin)
	if err != nil {
		t.Fatalf("NewHostPlan parallel: %v", err)
	}
	x := noise(n, 37)
	want := append([]complex128(nil), x...)
	if err := serial.Transform(want); err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), x...)
	if err := parallel.Transform(got); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("parallel Bluestein transform differs bitwise from serial")
	}
	batch := [][]complex128{
		append([]complex128(nil), x...),
		append([]complex128(nil), x...),
	}
	if err := parallel.TransformBatch(batch); err != nil {
		t.Fatal(err)
	}
	for r := range batch {
		if !sameBits(batch[r], want) {
			t.Fatalf("batched Bluestein row %d differs bitwise from serial", r)
		}
	}
	if err := serial.Inverse(want); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Inverse(got); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("parallel Bluestein inverse differs bitwise from serial")
	}
}

// TestCachedHostPlanChurn hammers the shared plan cache from several
// goroutines with a length stream that mixes power-of-two, composite,
// prime, and degenerate sizes — the shapes that now coexist in one
// cache under distinct radix signatures. Run under -race in CI, this is
// the concurrency regression test for the widened planner.
func TestCachedHostPlanChurn(t *testing.T) {
	lengths := []int{256, 720, 1009, 64, 1000, 12, 1, 97}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := lengths[(g+i)%len(lengths)]
				h, err := codeletfft.CachedHostPlan(n)
				if err != nil {
					errc <- err
					return
				}
				x := noise(n, int64(g*1000+i))
				data := append([]complex128(nil), x...)
				if err := h.Transform(data); err != nil {
					errc <- err
					return
				}
				if err := h.Inverse(data); err != nil {
					errc <- err
					return
				}
				if e := math.Sqrt(maxErr(data, x)); e > 1e-9 {
					errc <- errors.New("cached plan round-trip diverged")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestFacadeUnsupportedLength: the facade rejects only non-positive
// lengths with ErrUnsupportedLength; the real-input path accepts every
// even n ≥ 4 and rejects odd or tiny lengths with the same sentinel.
func TestFacadeUnsupportedLength(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := codeletfft.NewHostPlan(n); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
			t.Fatalf("NewHostPlan(%d) err = %v, want ErrUnsupportedLength", n, err)
		}
	}
	for _, n := range []int{0, 2, 99} {
		if _, err := codeletfft.NewRealPlan(n); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
			t.Fatalf("NewRealPlan(%d) err = %v, want ErrUnsupportedLength", n, err)
		}
	}
	// Even non-power-of-two lengths are no longer rejected: they route
	// through the mixed-radix (or Bluestein) half transform.
	if r, err := codeletfft.NewRealPlan(100); err != nil || r.N() != 100 {
		t.Fatalf("NewRealPlan(100) = %v, %v; want a plan", r, err)
	}
}
