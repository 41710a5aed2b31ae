package serve

import (
	"bytes"
	"math"
	"testing"

	"codeletfft/internal/fft"
)

// awkward are the float64 values a codec is most likely to damage:
// NaNs with payload bits (quiet and signalling, both signs), the
// infinities, both zeros, subnormals, and the extremes.
var awkward = func() []float64 {
	var v []float64
	for _, bits := range []uint64{
		0x7ff8000000000001, 0xfff8deadbeef0042, 0x7ff0000000000001, 0xfff7ffffffffffff,
		0x7ff0000000000000, 0xfff0000000000000, 0x0000000000000000, 0x8000000000000000,
		0x0000000000000001, 0x800fffffffffffff, 0x0010000000000000, 0x7fefffffffffffff,
		0x3ff0000000000000, 0x0102030405060708,
	} {
		v = append(v, math.Float64frombits(bits))
	}
	return v
}()

// TestPortableLoopMatchesCopy holds the payload codec's two paths to
// each other, bit for bit and in both directions, on the values above.
// The loop is correct on any host (its output is pinned to hand-written
// bytes first), so on a little-endian runner — where the exported
// functions are the copy — this is the test of the path a big-endian
// host runs. A complex payload is its float64 view's, so one loop pair
// serves both element types.
func TestPortableLoopMatchesCopy(t *testing.T) {
	if got, want := appendRealPortable(nil, []float64{1, -2}), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0xc0}; !bytes.Equal(got, want) {
		t.Fatalf("portable encoding of [1 -2] = %x, want %x", got, want)
	}
	if got, want := AppendComplexPayload(nil, []complex128{complex(1, -2)}), appendRealPortable(nil, []float64{1, -2}); !bytes.Equal(got, want) {
		t.Fatalf("encoding of 1-2i = %x, want re then im, %x", got, want)
	}

	cplx := make([]complex128, len(awkward))
	for i, v := range awkward {
		cplx[i] = complex(v, awkward[len(awkward)-1-i])
	}
	// Long enough to leave the first chunk of a chunked write.
	for i := 0; len(cplx) < 3*writeChunkBytes/16; i++ {
		cplx = append(cplx, complex(float64(i), -1/float64(i+1)))
	}
	reals := fft.ComplexFloat64s(cplx)

	wire := appendRealPortable(nil, reals)
	if got := AppendComplexPayload(nil, cplx); !bytes.Equal(got, wire) {
		t.Error("AppendComplexPayload differs from the portable loop")
	}
	if got := AppendRealPayload(nil, reals); !bytes.Equal(got, wire) {
		t.Error("AppendRealPayload differs from the portable loop")
	}
	host := hostIsWire
	for _, portable := range []bool{false, true} {
		hostIsWire = !portable
		var stream bytes.Buffer
		if err := writePayload(&stream, reals); err != nil || !bytes.Equal(stream.Bytes(), wire) {
			t.Errorf("portable=%v: written payload differs from the portable loop (err %v)", portable, err)
		}
	}
	hostIsWire = host

	gotC, ref := make([]complex128, len(cplx)), make([]float64, len(reals))
	DecodeComplexPayload(gotC, wire)
	decodeRealPortable(ref, wire)
	// Bytes, not values: NaN != NaN, and the payload bits are the point.
	if !bytes.Equal(fft.ComplexBytes(gotC), fft.Float64Bytes(ref)) {
		t.Error("decoded copy differs from the portable loop")
	}
	if !bytes.Equal(fft.Float64Bytes(ref), fft.Float64Bytes(reals)) {
		t.Error("portable decode of portable encode is not the input")
	}

	// readPayload's conversion on a big-endian host: the loop run in
	// place, over a buffer that holds wire bytes.
	in := make([]float64, len(reals))
	copy(fft.Float64Bytes(in), wire)
	decodeRealPortable(in, fft.Float64Bytes(in))
	if !bytes.Equal(fft.Float64Bytes(in), fft.Float64Bytes(reals)) {
		t.Error("in-place portable decode damaged the payload")
	}

	// Canonical through the frame codec too: decode then encode is the
	// identity on these bytes.
	for _, f := range []Frame{{Kind: KindInverse, Complex: cplx[:len(awkward)]}, {Kind: KindReal, Real: reals[:len(awkward)]}} {
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		if re, err := EncodeFrame(dec); err != nil || !bytes.Equal(re, enc) {
			t.Errorf("%s frame of awkward values is not canonical (err %v)", f.Kind, err)
		}
	}
}
