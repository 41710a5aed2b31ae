// Native Go fuzz targets for the transform engines. The staged targets
// derive a power-of-two complex input from raw fuzz bytes (values
// bounded in [-1,1) so tolerances stay meaningful) and a plan shape
// from the fuzzed parameters, then check the two invariants the rest of
// the repo leans on: forward+inverse is the identity, and the parallel
// host engine is bitwise-indistinguishable from the serial path.
// FuzzMixedRadixRoundTrip and FuzzBluesteinMatchesDFT extend the same
// properties to arbitrary lengths — any {2,3,5,7}-smooth N for the
// mixed-radix plan, any N ≥ 1 for the chirp-z embedding — and
// FuzzTransformRoundTrip carries an arbitrary-length section of its
// own so the legacy corpus also exercises the non-power-of-two router.
//
// CI runs short -fuzz smokes on each target; all targets also run
// their seed corpus under plain `go test`.
package fft_test

import (
	"math"
	"testing"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

// fuzzInput decodes raw bytes into a power-of-two-length complex slice
// (each element consumes two bytes, mapped to [-1,1)) and picks a valid
// task size from p8. Returns nil if raw is too short for a 2-point
// transform.
func fuzzInput(raw []byte, p8 uint8) ([]complex128, int) {
	count := len(raw) / 2
	n := 1
	for n*2 <= count && n < 1<<12 {
		n *= 2
	}
	if n < 2 {
		return nil, 0
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = complex(float64(int8(raw[2*i]))/128, float64(int8(raw[2*i+1]))/128)
	}
	p := 2 << (int(p8) % 6) // 2..64
	if p > n {
		p = n
	}
	return x, p
}

func FuzzTransformRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add(make([]byte, 256), uint8(5))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 200, 100, 9, 8, 7, 6, 5, 4, 3, 2}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, p8 uint8) {
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
		data := append([]complex128(nil), x...)
		pl.Transform(data, w)

		// Cross-check the forward transform against the independent
		// recursive implementation.
		want := fft.Recursive(x)
		if e := fft.MaxError(data, want); e > 1e-9 {
			t.Fatalf("N=%d P=%d: staged vs recursive error %g", n, p, e)
		}

		pl.InverseTransform(data, w)
		if e := fft.MaxError(data, x); e > 1e-9 {
			t.Fatalf("N=%d P=%d: round-trip error %g", n, p, e)
		}

		// Arbitrary-length section: re-cut the same bytes to a length
		// that is usually not a power of two and round-trip it through
		// the mixed-radix/Bluestein router the facade uses.
		nAny := len(raw)%1023 + 1
		y := fuzzAnySignal(raw, nAny)
		rt := append([]complex128(nil), y...)
		anyForward(t, nAny)(rt)
		anyInverse(t, nAny)(rt)
		if e := fft.MaxError(rt, y); e > 1e-9 {
			t.Fatalf("N=%d: arbitrary-length round-trip error %g", nAny, e)
		}
	})
}

// fuzzAnySignal cycles raw bytes into an n-length complex signal with
// components in [-1,1). A nil or empty raw still yields a valid signal.
func fuzzAnySignal(raw []byte, n int) []complex128 {
	x := make([]complex128, n)
	if len(raw) == 0 {
		raw = []byte{0x55}
	}
	for i := range x {
		re := raw[(2*i)%len(raw)]
		im := raw[(2*i+1)%len(raw)]
		x[i] = complex(float64(int8(re))/128, float64(int8(im))/128)
	}
	return x
}

// anyForward and anyInverse route n through the same plan selection the
// facade applies: mixed-radix when N is {2,3,5,7}-smooth, Bluestein
// otherwise.
func anyForward(t *testing.T, n int) func([]complex128) {
	t.Helper()
	if mp, err := fft.NewMixedPlan(n); err == nil {
		return mp.Transform
	}
	bp, err := fft.NewBluesteinPlan(n)
	if err != nil {
		t.Fatalf("no plan for n=%d: %v", n, err)
	}
	return bp.Transform
}

func anyInverse(t *testing.T, n int) func([]complex128) {
	t.Helper()
	if mp, err := fft.NewMixedPlan(n); err == nil {
		return mp.InverseTransform
	}
	bp, err := fft.NewBluesteinPlan(n)
	if err != nil {
		t.Fatalf("no plan for n=%d: %v", n, err)
	}
	return bp.InverseTransform
}

// FuzzMixedRadixRoundTrip fuzzes the mixed-radix plan over arbitrary
// {2,3,5,7}-smooth lengths: the fuzzed length is reduced to its smooth
// part (dividing out the Bluestein cofactor), the signal round-trips
// through forward+inverse, and small lengths are additionally checked
// against the O(N²) reference DFT.
func FuzzMixedRadixRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(12))
	f.Add(make([]byte, 64), uint16(360))
	f.Add([]byte{255, 0, 128, 64}, uint16(1000))
	f.Add([]byte{9, 8, 7, 6, 5}, uint16(1))
	f.Add([]byte{42}, uint16(2047))
	f.Fuzz(func(t *testing.T, raw []byte, n16 uint16) {
		n := int(n16)%2048 + 1
		_, cofactor := fft.Factor(n)
		n /= cofactor // keep the {2,3,5,7}-smooth part, ≥ 1 by construction
		mp, err := fft.NewMixedPlan(n)
		if err != nil {
			t.Fatalf("NewMixedPlan(%d): %v", n, err)
		}
		x := fuzzAnySignal(raw, n)
		data := append([]complex128(nil), x...)
		mp.Transform(data)
		if n <= 512 {
			if e := fft.MaxError(data, fft.DFT(x)); e > 1e-9*float64(n) {
				t.Fatalf("N=%d: mixed-radix vs DFT error %g", n, e)
			}
		}
		mp.InverseTransform(data)
		if e := fft.MaxError(data, x); e > 1e-9 {
			t.Fatalf("N=%d: round-trip error %g", n, e)
		}
	})
}

// FuzzBluesteinMatchesDFT fuzzes the chirp-z plan over every length in
// [1, 600] — prime, smooth, and everything between — against the
// reference DFT, then checks the forward/inverse identity.
func FuzzBluesteinMatchesDFT(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(11))
	f.Add(make([]byte, 32), uint16(127))
	f.Add([]byte{255, 0, 128, 64}, uint16(257))
	f.Add([]byte{17}, uint16(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9}, uint16(599))
	f.Fuzz(func(t *testing.T, raw []byte, n16 uint16) {
		n := int(n16)%600 + 1
		bp, err := fft.NewBluesteinPlan(n)
		if err != nil {
			t.Fatalf("NewBluesteinPlan(%d): %v", n, err)
		}
		x := fuzzAnySignal(raw, n)
		data := append([]complex128(nil), x...)
		bp.Transform(data)
		if e := fft.MaxError(data, fft.DFT(x)); e > 1e-9*float64(n) {
			t.Fatalf("N=%d: Bluestein vs DFT error %g", n, e)
		}
		bp.InverseTransform(data)
		if e := fft.MaxError(data, x); e > 1e-9 {
			t.Fatalf("N=%d: round-trip error %g", n, e)
		}
	})
}

// FuzzRealRoundTrip drives the real-input path: the packed RFFT must
// match the complex transform of the widened signal bin-for-bin, and
// Inverse(Transform(x)) must return x. Both checks run at every fuzzed
// (length, task size) the decoder produces.
func FuzzRealRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add(make([]byte, 128), uint8(3))
	f.Add([]byte{255, 1, 254, 2, 253, 3, 252, 4, 128, 127, 0, 64}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, p8 uint8) {
		z, p := fuzzInput(raw, p8)
		if z == nil || len(z) < 4 {
			t.Skip("input too short for a real plan")
		}
		n := len(z)
		x := make([]float64, n)
		for i, v := range z {
			x[i] = real(v)
		}
		rp, err := fft.NewRealPlan(n, p)
		if err != nil {
			t.Fatalf("NewRealPlan(%d, %d): %v", n, p, err)
		}
		spec := make([]complex128, rp.SpectrumLen())
		rp.Transform(spec, x)

		wide := make([]complex128, n)
		for i, v := range x {
			wide[i] = complex(v, 0)
		}
		want := fft.Recursive(wide)
		if e := fft.MaxError(spec, want[:n/2+1]); e > 1e-9 {
			t.Fatalf("N=%d P=%d: RFFT vs complex FFT error %g", n, p, e)
		}

		back := make([]float64, n)
		rp.Inverse(back, spec)
		for i := range x {
			if d := back[i] - x[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("N=%d P=%d: round trip diverged at %d (%g vs %g)", n, p, i, back[i], x[i])
			}
		}
	})
}

func FuzzParallelMatchesSerial(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(2))
	f.Add(make([]byte, 512), uint8(5), uint8(7))
	f.Add([]byte{9, 9, 9, 9, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 0, 255}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, p8, workers8 uint8) {
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

		serial := append([]complex128(nil), x...)
		pl.Transform(serial, w)

		workers := int(workers8)%8 + 1
		eng := host.New(host.Config{Workers: workers, Threshold: 1})
		par := append([]complex128(nil), x...)
		eng.Run(pl.Schedule(w, fft.KernelRadix2, false), par)
		for i := range par {
			if math.Float64bits(real(par[i])) != math.Float64bits(real(serial[i])) ||
				math.Float64bits(imag(par[i])) != math.Float64bits(imag(serial[i])) {
				t.Fatalf("N=%d P=%d workers=%d: element %d differs: parallel %v, serial %v",
					n, p, workers, i, par[i], serial[i])
			}
		}

		// And the inverse path, which adds the sharded conjugate/scale
		// passes on top of the forward engine.
		pl.InverseTransform(serial, w)
		eng.Run(pl.Schedule(w, fft.KernelRadix2, true), par)
		for i := range par {
			if math.Float64bits(real(par[i])) != math.Float64bits(real(serial[i])) ||
				math.Float64bits(imag(par[i])) != math.Float64bits(imag(serial[i])) {
				t.Fatalf("N=%d P=%d workers=%d: inverse element %d differs", n, p, workers, i)
			}
		}
	})
}
