package fft

import "unsafe"

// Views of a sample slice as its own memory, in host byte order: the
// one place the module reinterprets a slice. The spill store stages
// segments through pread/pwrite with them, the serving codec moves
// payloads with one copy where the host's layout is the wire's, and a
// real plan runs its packed half transform in the caller's own buffers.
// A view aliases v — it is v, typed differently — and lives as long as v
// does.

// ComplexBytes views v as its 16·len(v) bytes: re then im, each a
// host-order float64.
func ComplexBytes(v []complex128) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*16)
}

// Float64Bytes views v as its 8·len(v) bytes.
func Float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// ComplexFloat64s views v as 2·len(v) float64s, re and im interleaved —
// how a buffer of complex elements carries real samples.
func ComplexFloat64s(v []complex128) []float64 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&v[0])), len(v)*2)
}

// Float64Complexes views v as len(v)/2 complex elements, v[2j] + i·v[2j+1]
// — the inverse of ComplexFloat64s. An odd last sample is outside the
// view. A complex128 needs only a float64's alignment, so any v will do.
func Float64Complexes(v []float64) []complex128 {
	if len(v) < 2 {
		return nil
	}
	return unsafe.Slice((*complex128)(unsafe.Pointer(&v[0])), len(v)/2)
}
