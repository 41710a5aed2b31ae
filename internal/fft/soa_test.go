// SoA kernel family tests on the exported surface. DFT parity and
// serial/parallel/batch bitwise identity are covered by the cross-kernel
// suites in kernels_test.go and internal/host, which iterate
// ConcreteKernels and so extend to the SoA kernels automatically; this
// file adds what is SoA-specific — the pooled-scratch allocation
// guarantee, the accel introspection string, the tiled pack and the
// sweep-free inverse pinned bit-for-bit against the element scatter and
// the unfused conjugation identity they replaced, and a dedicated fuzz
// target for the split-plane pipeline.
package fft_test

import (
	"errors"
	"math"
	"testing"

	"codeletfft/internal/fft"
)

// scatterPack is the element-at-a-time deinterleave + bit-reversal the
// tiled pack replaced, kept as its oracle: element i goes to plane
// position BitReverse(i), one store per element.
func scatterPack(f *fft.SoAFrame, data []complex128, logN int) {
	for i, v := range data {
		r := fft.BitReverse(int64(i), logN)
		f.Re[r], f.Im[r] = real(v), imag(v)
	}
}

func samePlanes(a, b *fft.SoAFrame) bool {
	for i := range a.Re {
		if math.Float64bits(a.Re[i]) != math.Float64bits(b.Re[i]) ||
			math.Float64bits(a.Im[i]) != math.Float64bits(b.Im[i]) {
			return false
		}
	}
	return true
}

// poison fills the planes so an element the pack fails to write cannot
// pass by holding the right value from an earlier iteration.
func poison(f *fft.SoAFrame) {
	for i := range f.Re {
		f.Re[i], f.Im[i] = math.NaN(), math.NaN()
	}
}

// TestSoAPackTilesMatchesScatter pins the tiled pack bit-for-bit
// against the scatter oracle for every logN the engine can see — odd
// logN (non-square middle field), sizes smaller than one tile (q < 5),
// N = 1 — through the full-range PackBitrev, any partition of the tile
// range (whole, tile-by-tile in reverse, an uneven three-way split),
// the conjugating variant, and PackBitrev's partial element ranges.
func TestSoAPackTilesMatchesScatter(t *testing.T) {
	maxLog := 22
	if testing.Short() || raceEnabled {
		maxLog = 16 // single-goroutine test: the detector only makes it slow
	}
	for logN := 0; logN <= maxLog; logN++ {
		n := 1 << logN
		data := lcgComplex(n, uint64(logN)+7)
		want, got := fft.GetSoAFrame(n), fft.GetSoAFrame(n)
		scatterPack(want, data, logN)
		check := func(what string) {
			t.Helper()
			if !samePlanes(got, want) {
				t.Fatalf("logN=%d: %s differs from the element scatter", logN, what)
			}
			poison(got)
		}

		poison(got)
		got.PackBitrev(data, 0, n, logN)
		check("full-range PackBitrev")

		tiles := fft.SoAPackTiles(logN)
		for b := tiles - 1; b >= 0; b-- {
			got.PackTiles(data, b, b+1, logN, false)
		}
		check("tile-by-tile PackTiles")
		c1, c2 := tiles/3, tiles-tiles/5
		got.PackTiles(data, c2, tiles, logN, false)
		got.PackTiles(data, 0, c1, logN, false)
		got.PackTiles(data, c1, c2, logN, false)
		check("three-way PackTiles split")

		e1 := n / 3
		got.PackBitrev(data, e1, n, logN)
		got.PackBitrev(data, 0, e1, logN)
		check("partial-range PackBitrev")

		for i, v := range data {
			data[i] = complex(real(v), -imag(v))
		}
		scatterPack(want, data, logN) // oracle on pre-conjugated input
		for i, v := range data {
			data[i] = complex(real(v), -imag(v))
		}
		got.PackTiles(data, 0, tiles, logN, true)
		check("conjugating PackTiles")

		want.Release()
		got.Release()
	}
}

// soaForwardOracle is TransformSoA as the parent commit ran it: scatter
// pack, the plan's passes, plain unpack.
func soaForwardOracle(pl *fft.Plan, data, w []complex128, kern fft.Kernel) {
	st := pl.SoATwiddles(w)
	f := fft.GetSoAFrame(pl.N)
	scatterPack(f, data, pl.LogN)
	for stage := 0; stage < pl.NumStages; stage++ {
		for pass, np := 0, pl.SoAPasses(stage, kern); pass < np; pass++ {
			pl.SoARunPass(stage, pass, 0, pl.SoAPassUnits(stage, pass, kern), f, st, kern)
		}
	}
	f.Unpack(data, 0, pl.N)
	f.Release()
}

// soaInverseOracle is the unfused conjugation identity over the forward
// oracle: conj sweep → forward → conj·1/N sweep.
func soaInverseOracle(pl *fft.Plan, data, w []complex128, kern fft.Kernel) {
	for i, v := range data {
		data[i] = complex(real(v), -imag(v))
	}
	soaForwardOracle(pl, data, w, kern)
	inv := 1 / float64(pl.N)
	for i, v := range data {
		data[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// TestSoAMatchesUnfusedOracle: the tiled pack and the folded inverse
// only move data, so soa2/soa4 forward and inverse outputs are
// bit-for-bit what the scatter pack and the two extra sweeps produced.
func TestSoAMatchesUnfusedOracle(t *testing.T) {
	for logN := 1; logN <= 15; logN++ {
		n := 1 << logN
		w := fft.Twiddles(n)
		x := lcgComplex(n, uint64(n)+3)
		for _, p := range []int{2, 8, 64} {
			if p > n {
				continue
			}
			pl, err := fft.NewPlan(n, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, kern := range []fft.Kernel{fft.KernelSoARadix2, fft.KernelSoARadix4} {
				want := append([]complex128(nil), x...)
				soaForwardOracle(pl, want, w, kern)
				got := append([]complex128(nil), x...)
				pl.TransformKernel(got, w, kern)
				if !equalBits(got, want) {
					t.Fatalf("N=2^%d P=%d %v: forward differs from the scatter-pack pipeline", logN, p, kern)
				}
				copy(want, x)
				soaInverseOracle(pl, want, w, kern)
				copy(got, x)
				pl.Schedule(w, kern, true).Run(got)
				if !equalBits(got, want) {
					t.Fatalf("N=2^%d P=%d %v: inverse differs from conj → forward → conj·1/N", logN, p, kern)
				}
			}
		}
	}
}

// TestSoATwiddlesBadTableDoesNotPoisonPlan is the regression test for
// the length check that used to sit inside the plan's sync.Once: a
// wrong-length table panicked inside Do, which left the Once done and
// the tables nil, so every later call — with a correct table —
// returned nil and the engine dereferenced it.
func TestSoATwiddlesBadTableDoesNotPoisonPlan(t *testing.T) {
	pl, err := fft.NewPlan(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			e, _ := recover().(error)
			if !errors.Is(e, fft.ErrLengthMismatch) {
				t.Fatalf("bad table: recovered %v, want an error wrapping ErrLengthMismatch", e)
			}
		}()
		pl.SoATwiddles(make([]complex128, 7))
	}()
	w := fft.Twiddles(pl.N)
	if st := pl.SoATwiddles(w); st == nil || len(st.LvlRe) != pl.LogN {
		t.Fatalf("SoATwiddles after a rejected table = %v, want built tables", st)
	}
	x := lcgComplex(pl.N, 5)
	want := append([]complex128(nil), x...)
	pl.Transform(want, w)
	pl.TransformKernel(x, w, fft.KernelSoARadix4)
	if rel := maxRelError(x, want); rel > 1e-9 {
		t.Fatalf("transform after a rejected table: relative error %g", rel)
	}
}

// TestSoAAccelNamed: the backend string is one of the documented values.
func TestSoAAccelNamed(t *testing.T) {
	switch got := fft.SoAAccel(); got {
	case "avx2+fma", "neon", "generic":
	default:
		t.Fatalf("SoAAccel() = %q, not a documented backend", got)
	}
}

// TestSoATransformAllocs pins the tentpole's pooling contract: after
// the plan's split twiddle tables and the frame pool are warm, a
// steady-state TransformSoA performs zero allocations.
func TestSoATransformAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, kern := range []fft.Kernel{fft.KernelSoARadix2, fft.KernelSoARadix4} {
		pl, err := fft.NewPlan(1<<12, 64)
		if err != nil {
			t.Fatal(err)
		}
		w := fft.Twiddles(pl.N)
		data := lcgComplex(pl.N, 99)
		pl.TransformKernel(data, w, kern) // warm tables and pools
		if avg := testing.AllocsPerRun(20, func() {
			pl.TransformKernel(data, w, kern)
		}); avg != 0 {
			t.Errorf("%v: %v allocs per steady-state transform, want 0", kern, avg)
		}
	}
}

// TestMixedTransformWithAllocs: the caller-buffer mixed-radix entry
// point (what the benchmark's fft.ns_per_pt.mixed_1000 probe times)
// allocates nothing — its State is pooled, not built per call.
func TestMixedTransformWithAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	mp, err := fft.NewMixedPlan(1000)
	if err != nil {
		t.Fatal(err)
	}
	data, work := lcgComplex(mp.N, 7), make([]complex128, mp.N)
	mp.TransformWith(data, work)
	if avg := testing.AllocsPerRun(20, func() { mp.TransformWith(data, work) }); avg != 0 {
		t.Errorf("%v allocs per TransformWith, want 0", avg)
	}
}

// FuzzSoAParity fuzzes (input, task size, SoA kernel selector): the SoA
// kernel's forward output must match radix-2 within the documented 1e-9
// relative tolerance, its forward+inverse round trip must return the
// input, and its inverse must be bit-for-bit the unfused conjugation
// identity around its own forward. Part of the CI fuzz smoke alongside FuzzKernelParity,
// which draws from all kernels — this target keeps every execution on
// the split-plane pipeline so the fuzz budget is not diluted.
func FuzzSoAParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), false)
	f.Add(make([]byte, 256), uint8(5), true)
	f.Add([]byte{255, 0, 128, 64, 32, 16, 200, 100, 9, 8, 7, 6, 5, 4, 3, 2}, uint8(2), false)
	f.Fuzz(func(t *testing.T, raw []byte, p8 uint8, radix4 bool) {
		x, p := fuzzInput(raw, p8)
		if x == nil {
			t.Skip("input too short")
		}
		n := len(x)
		pl, err := fft.NewPlan(n, p)
		if err != nil {
			t.Fatalf("NewPlan(%d, %d): %v", n, p, err)
		}
		w := fft.Twiddles(n)
		kern := fft.KernelSoARadix2
		if radix4 {
			kern = fft.KernelSoARadix4
		}

		want := append([]complex128(nil), x...)
		pl.Transform(want, w)
		got := append([]complex128(nil), x...)
		pl.TransformKernel(got, w, kern)
		if rel := maxRelError(got, want); rel > 1e-9 {
			t.Fatalf("n=%d p=%d %v: relative error %g vs radix-2", n, p, kern, rel)
		}

		unfused := append([]complex128(nil), got...)
		soaInverseOracle(pl, unfused, w, kern)
		pl.Schedule(w, kern, true).Run(got)
		if rel := maxRelError(got, x); rel > 1e-9 {
			t.Fatalf("n=%d p=%d %v: round-trip relative error %g", n, p, kern, rel)
		}
		if !equalBits(got, unfused) {
			t.Fatalf("n=%d p=%d %v: inverse differs from conj → forward → conj·1/N", n, p, kern)
		}
	})
}
