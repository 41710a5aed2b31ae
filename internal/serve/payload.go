// The payload encoding shared by every frame format in this package
// (FFB1, FFS1, FFS2): float64 values, little-endian, a complex element
// as its re then its im. On a host whose float64 layout is that
// encoding — every little-endian one — a payload IS the slice's memory,
// so encoding and decoding are one copy through a byte view. The
// portable loops below are the path a big-endian host runs, and the
// reference the tests hold the copy to.
package serve

import (
	"encoding/binary"
	"io"
	"math"

	"codeletfft/internal/fft"
)

// hostIsWire reports whether this host lays a float64 out in memory as
// the wire does. Decided once, by looking.
var hostIsWire = func() bool {
	const probe = 0x0102030405060708
	v := [1]float64{math.Float64frombits(probe)}
	return binary.LittleEndian.Uint64(fft.Float64Bytes(v[:])) == probe
}()

// AppendComplexPayload appends src's wire encoding to dst.
func AppendComplexPayload(dst []byte, src []complex128) []byte {
	if hostIsWire {
		return append(dst, fft.ComplexBytes(src)...)
	}
	return appendComplexPortable(dst, src)
}

// DecodeComplexPayload fills dst from the first 16·len(dst) bytes of
// payload, which must hold at least that many. The inverse of
// AppendComplexPayload.
func DecodeComplexPayload(dst []complex128, payload []byte) {
	payload = payload[:16*len(dst)]
	if hostIsWire {
		copy(fft.ComplexBytes(dst), payload)
		return
	}
	decodeComplexPortable(dst, payload)
}

// AppendRealPayload appends src's wire encoding to dst: the real-sample
// twin of AppendComplexPayload.
func AppendRealPayload(dst []byte, src []float64) []byte {
	if hostIsWire {
		return append(dst, fft.Float64Bytes(src)...)
	}
	return appendRealPortable(dst, src)
}

// DecodeRealPayload fills dst from the first 8·len(dst) bytes of
// payload. The inverse of AppendRealPayload.
func DecodeRealPayload(dst []float64, payload []byte) {
	payload = payload[:8*len(dst)]
	if hostIsWire {
		copy(fft.Float64Bytes(dst), payload)
		return
	}
	decodeRealPortable(dst, payload)
}

func appendComplexPortable(dst []byte, src []complex128) []byte {
	for _, c := range src {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(c)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(c)))
	}
	return dst
}

// decodeComplexPortable reads element i's bytes before it writes
// element i, so it also converts a payload in place (payload aliasing
// dst's own bytes).
func decodeComplexPortable(dst []complex128, payload []byte) {
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(payload[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(payload[16*i+8:]))
		dst[i] = complex(re, im)
	}
}

func appendRealPortable(dst []byte, src []float64) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeRealPortable converts in place like decodeComplexPortable.
func decodeRealPortable(dst []float64, payload []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
}

// writeComplexPayload writes data's wire encoding to w: the slice's own
// bytes in one Write where the host's layout is the wire's, converted
// chunk by chunk elsewhere. No second copy of the payload exists either
// way.
func writeComplexPayload(w io.Writer, data []complex128) error {
	if hostIsWire {
		_, err := w.Write(fft.ComplexBytes(data))
		return err
	}
	return writeChunked(w, data, 16, appendComplexPortable)
}

// writeRealPayload is writeComplexPayload for real samples.
func writeRealPayload(w io.Writer, data []float64) error {
	if hostIsWire {
		_, err := w.Write(fft.Float64Bytes(data))
		return err
	}
	return writeChunked(w, data, 8, appendRealPortable)
}

// writeChunkBytes is the pooled chunk writeChunked converts through:
// 64 KiB amortizes the write call and stays cache-friendly.
const writeChunkBytes = 64 << 10

// writeChunked writes data, elemBytes per element on the wire, through
// one pooled chunk that encode fills.
func writeChunked[T any](w io.Writer, data []T, elemBytes int, encode func([]byte, []T) []byte) error {
	cp := AcquireFrame(writeChunkBytes)
	defer ReleaseFrame(cp)
	for len(data) > 0 {
		k := min(len(data), writeChunkBytes/elemBytes)
		if _, err := w.Write(encode((*cp)[:0], data[:k])); err != nil {
			return err
		}
		data = data[k:]
	}
	return nil
}
