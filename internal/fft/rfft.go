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
// The split passes check no lengths: a caller validates its buffers at
// its own entry with Check, before any work.
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

// Pack interleaves the real signal src (length N) into dst[:N/2] as
// dst[j] = src[2j] + i·src[2j+1], leaving dst[N/2] untouched. dst must
// have SpectrumLen elements.
func (rp *RealSplit) Pack(dst []complex128, src []float64) {
	for j := 0; j < rp.N/2; j++ {
		dst[j] = complex(src[2*j], src[2*j+1])
	}
}

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
	if err := rp.Check(dst, src); err != nil {
		return err
	}
	rp.Pack(dst, src)
	rp.Half.TransformKernel(dst[:rp.N/2], rp.WHalf, kern)
	rp.Unpack(dst)
	return nil
}

// PreInverse rebuilds the packed half transform Z (into work, length
// N/2) from the half-spectrum src (length SpectrumLen) — the exact
// inverse of Unpack, using X[k+h] = conj(X[h−k]):
//
//	E[k] = (X[k] + conj(X[h−k]))/2
//	O[k] = (X[k] − conj(X[h−k]))/2 · conj(W[k])
//	Z[k] = E[k] + i·O[k].
func (rp *RealSplit) PreInverse(work, src []complex128) {
	h := rp.N / 2
	for k := 0; k < h; k++ {
		a, b := src[k], conj(src[h-k])
		e := (a + b) * 0.5
		o := (a - b) * 0.5 * conj(rp.WReal[k])
		work[k] = e + o*complex(0, 1)
	}
}

// PostInverse de-interleaves the inverse half transform work (length
// N/2) into the real signal dst (length N).
func (rp *RealSplit) PostInverse(dst []float64, work []complex128) {
	for j, v := range work {
		dst[2*j] = real(v)
		dst[2*j+1] = imag(v)
	}
}

// Inverse recovers the length-N real signal from its half-spectrum src
// (length SpectrumLen) into dst with the radix-2 half transform. src is
// not modified. Inverse allocates its N/2 work buffer. Buffers of the
// wrong length are returned as Transform's are, before any work.
func (rp *RealPlan) Inverse(dst []float64, src []complex128) error {
	if err := rp.Check(src, dst); err != nil {
		return err
	}
	work := make([]complex128, rp.N/2)
	rp.PreInverse(work, src)
	if err := rp.Half.Schedule(rp.WHalf, KernelRadix2, true).Run(work); err != nil {
		return err
	}
	rp.PostInverse(dst, work)
	return nil
}

// Check returns an error wrapping ErrLengthMismatch unless spec has
// SpectrumLen elements and x has N: the length check every real plan
// runs at its entry, before any work.
func (rp *RealSplit) Check(spec []complex128, x []float64) error {
	if len(x) != rp.N {
		return LengthError("real signal", len(x), rp.N)
	}
	if len(spec) != rp.SpectrumLen() {
		return LengthError("half-spectrum", len(spec), rp.SpectrumLen())
	}
	return nil
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
