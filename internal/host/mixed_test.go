// Determinism tests for the arbitrary-N engine paths: the parallel
// mixed-radix sweep and the Bluestein convolution must be bitwise
// identical to their serial counterparts at every worker count, and a
// batch must match a plain loop element-for-element. The
// facade's reproducibility contract — same plan, same input, same bits,
// regardless of engine shape — extends to non-power-of-two lengths only
// because of the properties pinned here.
package host_test

import (
	"math"
	"math/rand"
	"testing"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

func mixedSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func requireSameBits(t *testing.T, got, want []complex128, what string) {
	t.Helper()
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestMixedParallelMatchesSerial: the sharded per-stage sweep computes
// exactly the serial plan's bits at every worker count, because each
// butterfly unit reads and writes a disjoint element set with
// self-contained arithmetic.
func TestMixedParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 12, 360, 1000, 3000, 6144} {
		mp, err := fft.NewMixedPlan(n)
		if err != nil {
			t.Fatalf("NewMixedPlan(%d): %v", n, err)
		}
		x := mixedSignal(n, int64(n))
		serial := append([]complex128(nil), x...)
		noErr(t, mp.Transform(serial))
		serialInv := append([]complex128(nil), serial...)
		noErr(t, mp.InverseTransform(serialInv))

		for _, workers := range []int{2, 4, 7} {
			eng := host.New(host.Config{Workers: workers, Threshold: 1})
			par := append([]complex128(nil), x...)
			eng.MixedTransform(mp, par)
			requireSameBits(t, par, serial, "forward")
			noErr(t, eng.Run(mp.Schedule(true), par))
			requireSameBits(t, par, serialInv, "inverse")
		}
	}
}

// TestBluesteinEngineDeterministic: the Bluestein path is elementwise
// sweeps around the engine's convolution stages, so a 4-worker engine
// must reproduce a 1-worker engine bit-for-bit — and both must still be
// a correct DFT — from a 24-point convolution up to a 2^17-point one
// (65521, checked by its round trip).
func TestBluesteinEngineDeterministic(t *testing.T) {
	for _, n := range []int{11, 97, 499, 601, 65521} {
		bp, err := fft.NewBluesteinPlan(n)
		if err != nil {
			t.Fatalf("NewBluesteinPlan(%d): %v", n, err)
		}
		x := mixedSignal(n, int64(n))
		one := host.New(host.Config{Workers: 1, Threshold: 1})
		ref := append([]complex128(nil), x...)
		one.BluesteinTransform(bp, ref, fft.KernelAuto)

		if n <= 601 {
			if e := fft.MaxError(ref, fft.DFT(x)); e > 1e-9*float64(n) {
				t.Fatalf("n=%d: engine Bluestein vs DFT error %g", n, e)
			}
		}

		four := host.New(host.Config{Workers: 4, Threshold: 1})
		par := append([]complex128(nil), x...)
		four.BluesteinTransform(bp, par, fft.KernelAuto)
		requireSameBits(t, par, ref, bp.String()+" forward")

		noErr(t, one.Run(bp.Schedule(true), ref))
		noErr(t, four.Run(bp.Schedule(true), par))
		requireSameBits(t, par, ref, bp.String()+" inverse")
		if e := fft.MaxError(par, x); e > 1e-9 {
			t.Fatalf("n=%d: round-trip error %g", n, e)
		}
	}
}

// TestBluesteinBatchMatchesLoop: batch rows are dealt out whole to
// workers that each reuse one State, so each row must match the
// single-shot call exactly.
func TestBluesteinBatchMatchesLoop(t *testing.T) {
	const n, rows = 97, 5
	bp, err := fft.NewBluesteinPlan(n)
	if err != nil {
		t.Fatalf("NewBluesteinPlan(%d): %v", n, err)
	}
	eng := host.New(host.Config{Workers: 4, Threshold: 1})
	want := make([][]complex128, rows)
	batch := make([][]complex128, rows)
	for r := range batch {
		x := mixedSignal(n, int64(200+r))
		want[r] = append([]complex128(nil), x...)
		eng.BluesteinTransform(bp, want[r], fft.KernelRadix2)
		batch[r] = append([]complex128(nil), x...)
	}
	noErr(t, eng.RunBatch(bp.Schedule(false), batch))
	for r := range batch {
		requireSameBits(t, batch[r], want[r], "bluestein batch row")
	}
	for r := range batch {
		noErr(t, eng.Run(bp.Schedule(true), want[r]))
	}
	noErr(t, eng.RunBatch(bp.Schedule(true), batch))
	for r := range batch {
		requireSameBits(t, batch[r], want[r], "bluestein batch inverse row")
	}
}
