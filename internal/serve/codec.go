// The compact binary codec of the serving daemon. A frame is one FFT
// request or response:
//
//	offset  size  field
//	0       4     magic "FFB1"
//	4       1     version (1)
//	5       1     kind    (KindForward, KindInverse, KindReal, KindRealInverse)
//	6       1     elem    (elemComplex=0: 16-byte re/im float64 pairs;
//	                       elemReal=1: 8-byte float64 samples)
//	7       1     reserved, must be 0
//	8       4     count   (uint32 LE, number of payload elements)
//	12      …     payload (count·16 or count·8 bytes, float64 LE)
//
// Decoding is strict: a frame with a bad magic, unknown version/kind/
// elem, a non-zero reserved byte, an oversized count, or a payload
// whose length is not exactly count·elemsize (truncated or trailing
// bytes alike) is rejected with an error wrapping ErrBadFrame — never a
// panic, a property pinned by FuzzServeCodec. Encoding is canonical:
// re-encoding a decoded frame reproduces the input bytes exactly.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Kind is the transform a frame requests; a response frame carries the
// kind of the request it answers.
type Kind uint8

const (
	// KindForward is an in-place complex forward FFT (payload: N complex).
	KindForward Kind = iota
	// KindInverse is an in-place complex inverse FFT (payload: N complex).
	KindInverse
	// KindReal is a real-input forward FFT (request payload: N real
	// samples; response payload: N/2+1 complex Hermitian bins).
	KindReal
	// KindRealInverse recovers a real signal from its half-spectrum
	// (request payload: N/2+1 complex bins; response payload: N reals).
	KindRealInverse

	kindCount
)

// String names the kind as the JSON API spells it.
func (k Kind) String() string {
	switch k {
	case KindForward:
		return "forward"
	case KindInverse:
		return "inverse"
	case KindReal:
		return "real"
	case KindRealInverse:
		return "real-inverse"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Element encodings of the payload.
const (
	elemComplex = 0
	elemReal    = 1
)

const (
	frameMagic   = "FFB1"
	frameVersion = 1
	headerLen    = 12

	// MaxFrameElems bounds the element count a decoder will accept
	// before even looking at the payload, so a hostile 4-byte count
	// cannot drive a huge allocation. 2^24 complex elements is a 256 MiB
	// payload — far above any size the daemon serves.
	MaxFrameElems = 1 << 24
)

// ErrBadFrame is wrapped by every frame decoding error.
var ErrBadFrame = errors.New("serve: bad frame")

// Frame is one decoded request or response. Exactly one of Complex and
// Real is non-nil, matching the frame's element encoding.
type Frame struct {
	Kind    Kind
	Complex []complex128
	Real    []float64
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. It errors if the frame has both (or neither) payload slice, an
// unknown kind, or an oversized payload.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if f.Kind >= kindCount {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, f.Kind)
	}
	var elem byte
	var count int
	switch {
	case f.Complex != nil && f.Real == nil:
		elem, count = elemComplex, len(f.Complex)
	case f.Real != nil && f.Complex == nil:
		elem, count = elemReal, len(f.Real)
	default:
		return nil, fmt.Errorf("%w: frame must carry exactly one payload", ErrBadFrame)
	}
	if count > MaxFrameElems {
		return nil, fmt.Errorf("%w: %d elements exceeds limit %d", ErrBadFrame, count, MaxFrameElems)
	}
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, byte(f.Kind), elem, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	if elem == elemComplex {
		for _, c := range f.Complex {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(c)))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(c)))
		}
	} else {
		for _, v := range f.Real {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// EncodeFrame encodes the frame into a fresh buffer.
func EncodeFrame(f Frame) ([]byte, error) {
	size := headerLen
	if f.Complex != nil {
		size += 16 * len(f.Complex)
	} else {
		size += 8 * len(f.Real)
	}
	return AppendFrame(make([]byte, 0, size), f)
}

// DecodeFrame parses one frame from b, which must contain exactly the
// frame — truncated payloads and trailing bytes are both rejected.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) < headerLen {
		return Frame{}, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrBadFrame, len(b), headerLen)
	}
	if string(b[:4]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, b[:4])
	}
	if b[4] != frameVersion {
		return Frame{}, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, b[4])
	}
	kind := Kind(b[5])
	if kind >= kindCount {
		return Frame{}, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, b[5])
	}
	elem := b[6]
	if elem != elemComplex && elem != elemReal {
		return Frame{}, fmt.Errorf("%w: unknown element encoding %d", ErrBadFrame, elem)
	}
	if b[7] != 0 {
		return Frame{}, fmt.Errorf("%w: non-zero reserved byte", ErrBadFrame)
	}
	count := int(binary.LittleEndian.Uint32(b[8:12]))
	if count > MaxFrameElems {
		return Frame{}, fmt.Errorf("%w: %d elements exceeds limit %d", ErrBadFrame, count, MaxFrameElems)
	}
	elemSize := 16
	if elem == elemReal {
		elemSize = 8
	}
	payload := b[headerLen:]
	if len(payload) != count*elemSize {
		return Frame{}, fmt.Errorf("%w: payload is %d bytes, want exactly %d (count %d)",
			ErrBadFrame, len(payload), count*elemSize, count)
	}
	f := Frame{Kind: kind}
	if elem == elemComplex {
		f.Complex = make([]complex128, count)
		for i := range f.Complex {
			re := math.Float64frombits(binary.LittleEndian.Uint64(payload[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(payload[16*i+8:]))
			f.Complex[i] = complex(re, im)
		}
	} else {
		f.Real = make([]float64, count)
		for i := range f.Real {
			f.Real[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	}
	return f, nil
}
