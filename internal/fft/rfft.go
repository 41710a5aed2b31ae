package fft

import "fmt"

// RealSplit is the O(N) half of the real-input packing trick for any
// even N ≥ 4: adjacent real samples become the real and imaginary parts
// of an N/2-point complex sequence, and the split pass untangles the
// half transform's output into the real signal's half-spectrum (or
// re-tangles it for the inverse). The pass is pure index arithmetic on
// the twiddle table — it does not care how the N/2-point transform is
// computed, so the same split serves the staged power-of-two RealPlan
// here and the facade's RealPlan, whose half transform is a host plan of
// whatever family N/2 routes to.
//
// The spectrum of a real signal is Hermitian (X[N−k] = conj(X[k])), so
// only the N/2+1 bins X[0..N/2] are produced; X[0] and X[N/2] are
// purely real by construction.
//
// Forward and Inverse are the whole composition — check, move, half
// transform, split — over the caller's two buffers; a plan supplies only
// its half transform. Unpack and PreInverse, the split passes alone,
// check no lengths.
type RealSplit struct {
	// N is the real-input length (even, ≥ 4).
	N int
	// WReal holds the split-pass factors W[k] = exp(−2πik/N) for k in
	// [0, N/2).
	WReal []complex128
}

// NewRealSplit builds the split-pass tables for any even n ≥ 4; errors
// wrap ErrUnsupportedLength otherwise. The half transform itself is the
// caller's to provide (an n/2-point plan of whatever family n/2 routes
// to).
func NewRealSplit(n int) (*RealSplit, error) {
	if n < 4 || n%2 != 0 {
		return nil, fmt.Errorf("%w: real transform length N=%d must be even and ≥ 4", ErrUnsupportedLength, n)
	}
	return &RealSplit{N: n, WReal: twiddleTable(n, n/2)}, nil
}

// RealPlan computes the FFT of a length-N real signal with one N/2-point
// complex FFT: the RealSplit packing plus a staged power-of-two half
// plan. Real input is the dominant serving workload (audio, sensor
// streams, telemetry), and the packing roughly halves both the
// arithmetic and the memory traffic of the complex path.
//
// A RealPlan is immutable after NewRealPlan and safe for any number of
// concurrent users (each call needs its own buffers).
type RealPlan struct {
	RealSplit
	// Half is the N/2-point complex plan the packed sequence runs through.
	Half *Plan
	// WHalf is Twiddles(N/2), the half transform's table.
	WHalf []complex128
}

// NewRealPlan builds a real-input plan for n-point transforms whose half
// transform uses taskSize-point kernels (clamped to n/2). n must be a
// power of two ≥ 4 so the half transform is a valid staged plan; errors
// wrap ErrUnsupportedLength or ErrBadTaskSize. The facade's RealPlan
// combines NewRealSplit with an N/2-point host plan instead, for every
// even length.
func NewRealPlan(n, taskSize int) (*RealPlan, error) {
	if Log2(n) < 0 || n < 4 {
		return nil, fmt.Errorf("%w: staged real plan length N=%d must be a power of two ≥ 4", ErrUnsupportedLength, n)
	}
	h := n / 2
	half, err := NewPlan(h, min(taskSize, h))
	if err != nil {
		return nil, err
	}
	return &RealPlan{
		RealSplit: RealSplit{N: n, WReal: twiddleTable(n, h)},
		Half:      half,
		WHalf:     Twiddles(h),
	}, nil
}

// SpectrumLen returns N/2 + 1, the length of the half-spectrum buffer
// Transform fills and Inverse consumes.
func (rp *RealSplit) SpectrumLen() int { return rp.N/2 + 1 }

// Unpack turns the half transform's output Z = dst[:N/2] into the real
// signal's half-spectrum X[0..N/2] in place. With E and O the spectra of
// the even and odd samples, Hermitian symmetry gives
//
//	E[k] = (Z[k] + conj(Z[h−k]))/2
//	O[k] = −i·(Z[k] − conj(Z[h−k]))/2
//	X[k] = E[k] + W[k]·O[k],  W[k] = exp(−2πik/N), h = N/2,
//
// and the pair (k, h−k) is resolved simultaneously so the pass runs in
// place (for odd h the middle pair k = h−k resolves to itself).
func (rp *RealSplit) Unpack(dst []complex128) {
	h := rp.N / 2
	z0 := dst[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= h/2; k++ {
		zk, zm := dst[k], dst[h-k]
		e := (zk + conj(zm)) * 0.5
		o := (zk - conj(zm)) * complex(0, -0.5)
		dst[k] = e + rp.WReal[k]*o
		dst[h-k] = conj(e) + rp.WReal[h-k]*conj(o)
	}
}

// Transform computes the half-spectrum of the length-N real signal src
// into dst (length SpectrumLen) with the radix-2 half transform: pack,
// N/2-point FFT, split. src is not modified. Buffers of the wrong
// length are returned, untouched, as an error wrapping ErrLengthMismatch.
func (rp *RealPlan) Transform(dst []complex128, src []float64) error {
	return rp.transform(dst, src, KernelRadix2)
}

// TransformKernelWith is RealPlan.Transform with a selectable butterfly
// kernel for the half transform; the pack/split passes are kernel-
// independent O(N) sweeps. The Scratch parameter is unused — the
// schedule pools its own. Wrong-length buffers panic with Transform's
// error.
func (rp *RealPlan) TransformKernelWith(dst []complex128, src []float64, kern Kernel, _ *Scratch) {
	must(rp.transform(dst, src, kern))
}

func (rp *RealPlan) transform(dst []complex128, src []float64, kern Kernel) error {
	return rp.Forward(dst, src, rp.Half.Schedule(rp.WHalf, kern, false).Run)
}

// PreInverse rebuilds the packed half transform Z (into z, length N/2)
// from the half-spectrum spec (length SpectrumLen) — the exact inverse
// of Unpack, using X[k+h] = conj(X[h−k]):
//
//	E[k] = (X[k] + conj(X[h−k]))/2
//	O[k] = (X[k] − conj(X[h−k]))/2 · conj(W[k])
//	Z[k] = E[k] + i·O[k].
func (rp *RealSplit) PreInverse(z, spec []complex128) {
	h := rp.N / 2
	for k := 0; k < h; k++ {
		a, b := spec[k], conj(spec[h-k])
		e := (a + b) * 0.5
		o := (a - b) * 0.5 * conj(rp.WReal[k])
		z[k] = e + o*complex(0, 1)
	}
}

// Forward computes the half-spectrum of the length-N real signal x into
// spec (length SpectrumLen): x moves into spec[:N/2] as the packed
// sequence x[2j] + i·x[2j+1] (one copy through a view), half transforms
// those N/2 elements in place, and Unpack splits them. x is not
// modified. Buffers of the wrong length are returned, untouched, as an
// error wrapping ErrLengthMismatch.
func (rp *RealSplit) Forward(spec []complex128, x []float64, half func([]complex128) error) error {
	if err := rp.check(spec, x); err != nil {
		return err
	}
	z := spec[:rp.N/2]
	copy(ComplexFloat64s(z), x)
	if err := half(z); err != nil {
		return err
	}
	rp.Unpack(spec)
	return nil
}

// Inverse recovers the length-N real signal x from its half-spectrum
// spec: PreInverse writes the packed sequence straight into x, viewed as
// N/2 complex elements, and inverseHalf transforms it there in place,
// which leaves the samples interleaved as x needs them. spec is not
// modified, and x and spec must not overlap. Buffers of the wrong length
// are returned as Forward's are, before any work.
func (rp *RealSplit) Inverse(x []float64, spec []complex128, inverseHalf func([]complex128) error) error {
	if err := rp.check(spec, x); err != nil {
		return err
	}
	z := Float64Complexes(x)
	rp.PreInverse(z, spec)
	return inverseHalf(z)
}

// Inverse recovers the length-N real signal from its half-spectrum src
// (length SpectrumLen) into dst with the radix-2 half transform, run in
// dst itself: it allocates nothing. src is not modified, and dst and
// src must not overlap. Buffers of the wrong length are returned as
// Transform's are, before any work.
func (rp *RealPlan) Inverse(dst []float64, src []complex128) error {
	return rp.RealSplit.Inverse(dst, src, rp.Half.Schedule(rp.WHalf, KernelRadix2, true).Run)
}

// check returns an error wrapping ErrLengthMismatch unless spec has
// SpectrumLen elements and x has N: the length check Forward and Inverse
// run at their entry, before any work.
func (rp *RealSplit) check(spec []complex128, x []float64) error {
	if len(x) != rp.N {
		return LengthError("real signal", len(x), rp.N)
	}
	if len(spec) != rp.SpectrumLen() {
		return LengthError("half-spectrum", len(spec), rp.SpectrumLen())
	}
	return nil
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
