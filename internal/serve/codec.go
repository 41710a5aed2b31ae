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
//
// There are two ways through the codec, and they accept exactly the
// same byte strings (FuzzReadFrame). AppendFrame and DecodeFrame work
// on a whole frame in memory: what a client holds. ReadFrame and
// WriteFrame are the daemon's wire path, in which a payload byte is
// copied once in each direction: ReadFrame parses the 12-byte header,
// shows it to the caller's shape check, and reads the payload from the
// body straight into the pooled buffer the engine transforms in place;
// WriteFrame answers from that buffer under a Content-Length — header,
// then the buffer's own bytes. No byte frame of the body ever exists:
// the pools' power-of-two classes would round a 2 MiB + 12 B frame up
// to 4 MiB. The payload encoding itself, and how byte order is decided,
// is payload.go.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"codeletfft/internal/fft"
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

// FrameHeader is a frame's 12 header bytes, parsed and validated: all
// there is to know about a frame before its payload.
type FrameHeader struct {
	Kind Kind
	// Real says the payload is Count float64 samples; otherwise it is
	// Count complex elements.
	Real  bool
	Count int
}

// payloadLen is the exact byte length of the payload the header
// announces.
func (h FrameHeader) payloadLen() int {
	if h.Real {
		return 8 * h.Count
	}
	return 16 * h.Count
}

// header validates what AppendFrame and WriteFrame are asked to encode.
func (f Frame) header() (FrameHeader, error) {
	h := FrameHeader{Kind: f.Kind}
	switch {
	case f.Kind >= kindCount:
		return h, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, f.Kind)
	case f.Complex != nil && f.Real == nil:
		h.Count = len(f.Complex)
	case f.Real != nil && f.Complex == nil:
		h.Real, h.Count = true, len(f.Real)
	default:
		return h, fmt.Errorf("%w: frame must carry exactly one payload", ErrBadFrame)
	}
	if h.Count > MaxFrameElems {
		return h, fmt.Errorf("%w: %d elements exceeds limit %d", ErrBadFrame, h.Count, MaxFrameElems)
	}
	return h, nil
}

func appendFrameHeader(dst []byte, h FrameHeader) []byte {
	elem := byte(elemComplex)
	if h.Real {
		elem = elemReal
	}
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, byte(h.Kind), elem, 0)
	return binary.LittleEndian.AppendUint32(dst, uint32(h.Count))
}

// parseFrameHeader validates the first headerLen bytes of b.
func parseFrameHeader(b []byte) (FrameHeader, error) {
	if len(b) < headerLen {
		return FrameHeader{}, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrBadFrame, len(b), headerLen)
	}
	if string(b[:4]) != frameMagic {
		return FrameHeader{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, b[:4])
	}
	if b[4] != frameVersion {
		return FrameHeader{}, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, b[4])
	}
	h := FrameHeader{Kind: Kind(b[5]), Real: b[6] == elemReal}
	if h.Kind >= kindCount {
		return FrameHeader{}, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, b[5])
	}
	if b[6] != elemComplex && b[6] != elemReal {
		return FrameHeader{}, fmt.Errorf("%w: unknown element encoding %d", ErrBadFrame, b[6])
	}
	if b[7] != 0 {
		return FrameHeader{}, fmt.Errorf("%w: non-zero reserved byte", ErrBadFrame)
	}
	h.Count = int(binary.LittleEndian.Uint32(b[8:12]))
	if h.Count > MaxFrameElems {
		return FrameHeader{}, fmt.Errorf("%w: %d elements exceeds limit %d", ErrBadFrame, h.Count, MaxFrameElems)
	}
	return h, nil
}

// errPayloadLen names a frame whose bytes after the header are not the
// payload its header announces.
func errPayloadLen(h FrameHeader, got int64) error {
	return fmt.Errorf("%w: payload is %d bytes, want exactly %d (count %d)", ErrBadFrame, got, h.payloadLen(), h.Count)
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. It errors if the frame has both (or neither) payload slice, an
// unknown kind, or an oversized payload.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	h, err := f.header()
	if err != nil {
		return nil, err
	}
	dst = appendFrameHeader(dst, h)
	if h.Real {
		return AppendRealPayload(dst, f.Real), nil
	}
	return AppendComplexPayload(dst, f.Complex), nil
}

// EncodeFrame encodes the frame into a fresh buffer.
func EncodeFrame(f Frame) ([]byte, error) {
	return AppendFrame(make([]byte, 0, headerLen+16*len(f.Complex)+8*len(f.Real)), f)
}

// DecodeFrame parses one frame from b, which must contain exactly the
// frame — truncated payloads and trailing bytes are both rejected.
func DecodeFrame(b []byte) (Frame, error) {
	h, err := parseFrameHeader(b)
	if err != nil {
		return Frame{}, err
	}
	payload := b[headerLen:]
	if len(payload) != h.payloadLen() {
		return Frame{}, errPayloadLen(h, int64(len(payload)))
	}
	f := Frame{Kind: h.Kind}
	if h.Real {
		f.Real = make([]float64, h.Count)
		DecodeRealPayload(f.Real, payload)
	} else {
		f.Complex = make([]complex128, h.Count)
		DecodeComplexPayload(f.Complex, payload)
	}
	return f, nil
}

// readStep is the largest payload ReadFrame acquires a buffer for on
// the word of a 12-byte header. Memory follows bytes received: a larger
// payload starts in a buffer this size and moves to one twice as large
// each time it fills, so past the step the daemon holds about twice
// what a client has actually sent, never what a header merely claims,
// and a byte is copied at most once more on the way. Every shape the
// daemon serves by default but the very largest fits the step and is
// not copied at all.
const readStep = 4 << 20

// ReadFrame reads one frame from body into a pooled buffer: the
// streaming DecodeFrame, accepting exactly the byte strings DecodeFrame
// accepts. declared is the body's announced length (a request's
// Content-Length), −1 when unknown; one that disagrees with the header's
// count is rejected before any payload is read, and so is a header that
// check, when not nil, refuses — a wrong-shape request costs 12 bytes,
// not its body. A short payload and trailing bytes (probed with one
// extra read) are ErrBadFrame like every malformed frame; other errors
// are check's or the body's own.
//
// The returned frame's payload aliases the returned buffer — the
// payload's bytes went from the body into it and nowhere else — which
// the caller owns and hands to ReleaseComplex when done with the frame.
// On error there is no buffer to release.
func ReadFrame(body io.Reader, declared int64, check func(FrameHeader) error) (Frame, *[]complex128, error) {
	var hdr [headerLen]byte
	n, err := io.ReadFull(body, hdr[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return Frame{}, nil, fmt.Errorf("reading frame header: %w", err)
	}
	h, err := parseFrameHeader(hdr[:n])
	if err != nil {
		return Frame{}, nil, err
	}
	size := h.payloadLen()
	if declared >= 0 && declared != int64(headerLen+size) {
		return Frame{}, nil, errPayloadLen(h, declared-headerLen)
	}
	if check != nil {
		if err := check(h); err != nil {
			return Frame{}, nil, err
		}
	}

	buf, got, err := readPayload(body, size)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return Frame{}, nil, errPayloadLen(h, int64(got))
	} else if err != nil {
		return Frame{}, nil, fmt.Errorf("reading frame payload: %w", err)
	}
	var extra [1]byte
	if n, _ := body.Read(extra[:]); n > 0 {
		ReleaseComplex(buf)
		return Frame{}, nil, fmt.Errorf("%w: bytes after the %d-byte payload", ErrBadFrame, size)
	}

	f := Frame{Kind: h.Kind}
	if h.Real {
		// Viewed at full capacity (never zero) so that an empty payload is
		// still a payload, not a nil slice.
		f.Real = fft.ComplexFloat64s((*buf)[:cap(*buf)])[:h.Count]
		if !hostIsWire {
			decodeRealPortable(f.Real, fft.Float64Bytes(f.Real))
		}
	} else {
		f.Complex = (*buf)[:h.Count]
		if !hostIsWire {
			decodeComplexPortable(f.Complex, fft.ComplexBytes(f.Complex))
		}
	}
	return f, buf, nil
}

// readPayload reads size payload bytes from body into the bytes of a
// pooled complex buffer — whichever element type they hold: real
// samples fill it as interleaved float64s — acquiring no more than
// readStep ahead of the bytes that have arrived. On an error it returns
// how many bytes it got and has released the buffer.
func readPayload(body io.Reader, size int) (buf *[]complex128, got int, err error) {
	buf = AcquireComplex(complexElems(min(size, readStep)))
	for got < size {
		if room := 16 * len(*buf); got == room {
			grown := AcquireComplex(complexElems(min(size, 2*room)))
			copy(*grown, *buf)
			ReleaseComplex(buf)
			buf = grown
		}
		dst := fft.ComplexBytes(*buf)
		n, err := io.ReadFull(body, dst[got:min(size, len(dst))])
		if got += n; err != nil {
			ReleaseComplex(buf)
			return nil, got, err
		}
	}
	return buf, got, nil
}

// complexElems is how many complex elements hold n payload bytes.
func complexElems(n int) int { return (n + 15) / 16 }

// WriteFrame answers an HTTP request with f: Content-Type, a
// Content-Length (so the reply is not chunked), the header, and then
// the payload's own bytes straight out of f's buffer, which the caller
// may release once WriteFrame returns. The error is f's — an unknown
// kind, both or neither payload, too many elements — and is returned
// before anything is written; a failed write means the client went
// away and is nobody's error.
func WriteFrame(w http.ResponseWriter, f Frame) error { return writeFrame(w, f, func() {}) }

// writeFrame is WriteFrame in the daemon's codec form: ok is called
// once f is known to encode, before the first byte is written.
func writeFrame(w http.ResponseWriter, f Frame, ok func()) error {
	h, err := f.header()
	if err != nil {
		return err
	}
	ok()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(headerLen+h.payloadLen()))
	if _, err := w.Write(appendFrameHeader(make([]byte, 0, headerLen), h)); err != nil {
		return nil
	}
	if h.Real {
		_ = writeRealPayload(w, f.Real)
	} else {
		_ = writeComplexPayload(w, f.Complex)
	}
	return nil
}
