// The wire format of the daemon and the cluster: every binary frame on
// /fft/bin and /fft/shard is one 40-byte header and a payload.
//
//	offset  size  field
//	0       4     magic "FFW1"
//	4       1     version (3; version 1's session payloads were split
//	                       planes, version 2's exchange payloads scaled)
//	5       1     op      (the transform kinds 0–3, then session ops 4–9)
//	6       1     elem    (elemComplex=0: 16-byte re/im float64 pairs;
//	                       elemReal=1: 8-byte float64 samples)
//	7       1     reserved, must be 0
//	8       8     id       (uint64 LE)
//	16      4     vecLen   (uint32 LE)
//	20      4     vecCount (uint32 LE)
//	24      8     arg0     (uint64 LE, op-specific)
//	32      8     arg1     (uint64 LE, op-specific)
//	40      …     payload  (vecLen·vecCount elements, float64 LE; an
//	              open's session spec, arg0 bytes)
//
// A transform's vecLen is its element count, vecCount 1; its id is a
// request id the answer echoes. A session op (sessionframe.go) is
// complex, its id the session's. What an op may carry is its opRules
// row; a frame that breaks it, or is not exactly header and payload, is
// refused with ErrBadFrame, never a panic (FuzzReadFrame and its two
// sibling corpora). Encoding is
// canonical.
//
// Frame and SessionFrame are a frame's two views, read in memory or
// streaming alike. Streaming copies a payload byte once each way:
// readHeader shows the header to the caller's check before readPayload
// reads the payload straight into the buffer the next step works in,
// and writeFrame sends the header, then that buffer's own bytes.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"codeletfft/internal/fft"
)

// Op is what a frame asks for or answers: the wire's one op space.
type Op uint8

type (
	// Kind is a transform op; a response carries its request's.
	Kind = Op
	// SessionOp is a session op (sessionframe.go).
	SessionOp = Op
)

// The transform kinds, then the session ops.
const (
	KindForward     Op = iota // in-place complex forward FFT (N complex)
	KindInverse               // in-place complex inverse FFT (N complex)
	KindReal                  // N real samples → N/2+1 complex bins
	KindRealInverse           // N/2+1 complex bins → N real samples

	OpSessOpen     // opens a resident session from a SessionSpec
	OpSessCols     // ships a worker's column slab
	OpSessExchange // carries one worker's block of a peer's rows
	OpSessRows     // fetches a worker's finished rows, ending the session
	OpSessClose    // ends a session: the abort path
	OpSessAck      // the header-only success reply

	opCount
	kindCount = OpSessOpen
)

// opRule is what an op's header may carry: vectors 0×0 (empty), more
// (full) — a transform's are n×1 — and how many of arg0, arg1.
type opRule struct {
	name        string
	empty, full bool
	args        int
}

var opRules = [opCount]opRule{
	KindForward:     {"forward", false, false, 0},
	KindInverse:     {"inverse", false, false, 0},
	KindReal:        {"real", false, false, 0},
	KindRealInverse: {"real-inverse", false, false, 0},
	OpSessOpen:      {"open", true, false, 1}, // arg0: the spec's length
	OpSessCols:      {"cols", false, true, 1},
	OpSessExchange:  {"exchange", false, true, 2},
	OpSessRows:      {"rows", true, true, 1},
	OpSessClose:     {"close", true, false, 0},
	OpSessAck:       {"ack", true, false, 0},
}

// String names the op; a kind as the JSON API spells it.
func (op Op) String() string {
	if op < opCount {
		return opRules[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

const (
	frameMagic   = "FFW1"
	frameVersion = 3
	headerLen    = 40
	elemComplex  = 0
	elemReal     = 1

	// MaxFrameElems bounds every count and argument a header may hold:
	// 2^24 complex elements is 256 MiB, far above any served size.
	MaxFrameElems = 1 << 24
)

// ErrBadFrame is wrapped by every frame decoding error.
var ErrBadFrame = errors.New("serve: bad frame")

// FrameHeader is a frame's header, parsed and validated. Real says the
// payload is VecLen float64 samples, not VecLen·VecCount complex ones.
type FrameHeader struct {
	Op               Op
	Real             bool
	ID               uint64
	VecLen, VecCount int
	Arg0, Arg1       int
}

// payloadLen is the exact byte length of the payload h announces.
func (h FrameHeader) payloadLen() int {
	switch {
	case h.Op == OpSessOpen:
		return h.Arg0
	case h.Real:
		return 8 * h.VecLen
	}
	return 16 * h.VecLen * h.VecCount
}

// validate holds h to its op's rule and to the view reading it.
func (h FrameHeader) validate(transform bool) error {
	if h.Op >= opCount {
		return fmt.Errorf("%w: unknown op %d", ErrBadFrame, h.Op)
	}
	r, some := opRules[h.Op], h.VecLen > 0 && h.VecCount > 0
	var bad string
	switch {
	case transform != (h.Op < kindCount):
		bad = "the other view's op"
	case h.VecLen < 0 || h.VecCount < 0 || h.Arg0 < 0 || h.Arg1 < 0:
		bad = "a negative field"
	case h.VecLen > MaxFrameElems || h.VecCount > MaxFrameElems || h.VecCount > 0 && h.VecLen > MaxFrameElems/h.VecCount,
		h.Arg0 > MaxFrameElems || h.Arg1 > MaxFrameElems:
		bad = fmt.Sprintf("a field past %d", MaxFrameElems)
	case h.Real && !transform:
		bad = "a real payload"
	case transform && h.VecCount != 1,
		!transform && !(r.empty && h.VecLen+h.VecCount == 0 || r.full && some):
		bad = fmt.Sprintf("%d×%d vectors", h.VecCount, h.VecLen)
	case r.args < 2 && h.Arg1 != 0, r.args < 1 && h.Arg0 != 0:
		bad = "an argument it does not use"
	case h.Op == OpSessOpen && (h.Arg0 < specHeadLen || h.Arg0 > maxSpecLen):
		bad = fmt.Sprintf("a %d-byte spec", h.Arg0)
	default:
		return nil
	}
	return fmt.Errorf("%w: a %s frame with %s", ErrBadFrame, h.Op, bad)
}

func appendHeader(dst []byte, h FrameHeader) []byte {
	elem := byte(elemComplex)
	if h.Real {
		elem = elemReal
	}
	le := binary.LittleEndian
	dst = append(append(dst, frameMagic...), frameVersion, byte(h.Op), elem, 0)
	dst = le.AppendUint64(dst, h.ID)
	dst = le.AppendUint32(le.AppendUint32(dst, uint32(h.VecLen)), uint32(h.VecCount))
	return le.AppendUint64(le.AppendUint64(dst, uint64(h.Arg0)), uint64(h.Arg1))
}

// parseHeader validates the first headerLen bytes of b (validate).
func parseHeader(b []byte, transform bool) (FrameHeader, error) {
	if len(b) < headerLen || string(b[:4]) != frameMagic || b[4] != frameVersion || b[6] > elemReal || b[7] != 0 {
		return FrameHeader{}, fmt.Errorf("%w: not a version %d %q header: % x", ErrBadFrame, frameVersion, frameMagic, b[:min(len(b), 8)])
	}
	le := binary.LittleEndian
	arg0, arg1 := le.Uint64(b[24:]), le.Uint64(b[32:])
	if arg0 > MaxFrameElems || arg1 > MaxFrameElems { // before they narrow
		return FrameHeader{}, fmt.Errorf("%w: arguments exceed limit %d", ErrBadFrame, MaxFrameElems)
	}
	h := FrameHeader{
		Op: Op(b[5]), Real: b[6] == elemReal, ID: le.Uint64(b[8:]),
		VecLen: int(le.Uint32(b[16:])), VecCount: int(le.Uint32(b[20:])),
		Arg0: int(arg0), Arg1: int(arg1),
	}
	return h, h.validate(transform)
}

func errPayloadLen(h FrameHeader, got int64) error {
	return fmt.Errorf("%w: payload is %d bytes, want exactly %d (%s, %d×%d)", ErrBadFrame, got, h.payloadLen(), h.Op, h.VecCount, h.VecLen)
}

// decodeFrame parses the frame that is exactly b.
func decodeFrame(b []byte, transform bool) (FrameHeader, []byte, error) {
	h, err := parseHeader(b, transform)
	if err == nil && len(b)-headerLen != h.payloadLen() {
		err = errPayloadLen(h, int64(len(b)-headerLen))
	}
	if err != nil {
		return h, nil, err
	}
	return h, b[headerLen:], nil
}

// readHeader reads a frame's header from body, refusing it if declared
// (the body's length, −1 when unknown) or check (when not nil) does.
func readHeader(body io.Reader, declared int64, transform bool, check func(FrameHeader) error) (FrameHeader, error) {
	hp := AcquireFrame(headerLen)
	defer ReleaseFrame(hp)
	n, err := io.ReadFull(body, *hp)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return FrameHeader{}, fmt.Errorf("reading frame header: %w", err)
	}
	h, err := parseHeader((*hp)[:n], transform)
	switch {
	case err != nil:
		return FrameHeader{}, err
	case declared >= 0 && declared != int64(headerLen+h.payloadLen()):
		return FrameHeader{}, errPayloadLen(h, declared-headerLen)
	case check != nil:
		return h, check(h)
	}
	return h, nil
}

// readStep is the largest buffer readPayload acquires on a header's
// word; a larger payload moves to one twice as large each time it
// fills, so memory follows the bytes sent, not the bytes claimed.
const readStep = 4 << 20

// readPayload reads h's payload, and probes body for a byte past it:
// into into, which must hold it exactly, or else into the bytes of a
// pooled buffer it returns for the caller to release (none on error).
func readPayload(body io.Reader, h FrameHeader, into []complex128) (buf *[]complex128, err error) {
	size, got := h.payloadLen(), 0
	if into != nil {
		got, err = io.ReadFull(body, fft.ComplexBytes(into))
	} else {
		buf = AcquireComplex(complexElems(min(size, readStep)))
		for got < size && err == nil {
			if room := 16 * len(*buf); got == room {
				grown := AcquireComplex(complexElems(min(size, 2*room)))
				copy(*grown, *buf)
				ReleaseComplex(buf)
				buf = grown
			}
			var n int
			n, err = io.ReadFull(body, fft.ComplexBytes(*buf)[got:min(size, 16*len(*buf))])
			got += n
		}
		into = (*buf)[:cap(*buf)]
	}
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		err = errPayloadLen(h, int64(got))
	case err != nil:
		err = fmt.Errorf("reading frame payload: %w", err)
	case trailing(body):
		err = fmt.Errorf("%w: bytes after the %d-byte payload", ErrBadFrame, size)
	case !hostIsWire && h.Op != OpSessOpen:
		v := fft.ComplexFloat64s(into)[:size/8]
		decodeRealPortable(v, fft.Float64Bytes(v))
	}
	if err != nil {
		ReleaseComplex(buf)
		return nil, err
	}
	return buf, nil
}

// trailing reports whether body holds a byte more.
func trailing(body io.Reader) bool {
	p := AcquireFrame(1)
	defer ReleaseFrame(p)
	n, _ := body.Read(*p)
	return n > 0
}

// complexElems is how many complex elements hold n payload bytes.
func complexElems(n int) int { return (n + 15) / 16 }

// writeFrame writes the header (and an open's spec) from a pooled
// buffer, then payload's own bytes, under a Content-Length when w is an
// http.ResponseWriter. The error is w's.
func writeFrame(w io.Writer, h FrameHeader, spec *SessionSpec, payload []float64) error {
	hp := AcquireFrame(headerLen + h.payloadLen() - 8*len(payload)) // room for a spec
	defer ReleaseFrame(hp)
	b := appendHeader((*hp)[:0], h)
	if spec != nil {
		b = appendSpec(b, spec)
	}
	if hw, ok := w.(http.ResponseWriter); ok {
		hw.Header().Set("Content-Type", "application/octet-stream")
		hw.Header().Set("Content-Length", strconv.Itoa(headerLen+h.payloadLen()))
	}
	if _, err := w.Write(b); err != nil || len(payload) == 0 {
		return err
	}
	return writePayload(w, payload)
}

// Frame is the transform view of a frame: one request or response.
// Exactly one of Complex and Real is non-nil, matching its element
// encoding. A response carries its request's ID.
type Frame struct {
	Kind    Kind
	ID      uint64
	Complex []complex128
	Real    []float64
}

// header validates f for the encoders; v is its payload's float64s.
func (f Frame) header() (h FrameHeader, v []float64, err error) {
	h, v = FrameHeader{Op: f.Kind, ID: f.ID, VecLen: len(f.Complex), VecCount: 1}, fft.ComplexFloat64s(f.Complex)
	if f.Real != nil {
		h.Real, h.VecLen, v = true, len(f.Real), f.Real
	}
	if (f.Complex == nil) == (f.Real == nil) {
		return h, nil, fmt.Errorf("%w: frame must carry exactly one payload", ErrBadFrame)
	}
	return h, v, h.validate(true)
}

// frameOf views buf, h's payload, as a Frame; buf has room for an
// element, so that an empty payload is still one.
func frameOf(h FrameHeader, buf []complex128) Frame {
	if h.Real {
		return Frame{Kind: h.Op, ID: h.ID, Real: fft.ComplexFloat64s(buf[:cap(buf)])[:h.VecLen]}
	}
	return Frame{Kind: h.Op, ID: h.ID, Complex: buf[:h.VecLen]}
}

// AppendFrame appends the encoded frame to dst. It errors if the frame
// has both or neither payload, an op that is not a transform, or too
// many elements.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	h, v, err := f.header()
	if err != nil {
		return nil, err
	}
	return AppendRealPayload(appendHeader(dst, h), v), nil
}

// EncodeFrame encodes the frame into a fresh buffer.
func EncodeFrame(f Frame) ([]byte, error) {
	return AppendFrame(make([]byte, 0, headerLen+16*len(f.Complex)+8*len(f.Real)), f)
}

// DecodeFrame parses the transform frame that is exactly b.
func DecodeFrame(b []byte) (Frame, error) {
	h, payload, err := decodeFrame(b, true)
	if err != nil {
		return Frame{}, err
	}
	buf := make([]complex128, complexElems(len(payload)), max(1, complexElems(len(payload))))
	DecodeRealPayload(fft.ComplexFloat64s(buf[:cap(buf)])[:len(payload)/8], payload)
	return frameOf(h, buf), nil
}

// ReadFrame is the streaming DecodeFrame (readHeader, readPayload). The
// frame's payload is the returned pooled buffer, which the caller hands
// to ReleaseComplex when done with the frame.
func ReadFrame(body io.Reader, declared int64, check func(FrameHeader) error) (Frame, *[]complex128, error) {
	h, err := readHeader(body, declared, true, check)
	if err != nil {
		return Frame{}, nil, err
	}
	buf, err := readPayload(body, h, nil)
	if err != nil {
		return Frame{}, nil, err
	}
	return frameOf(h, *buf), buf, nil
}

// WriteFrame answers an HTTP request with f. The error is what
// AppendFrame refuses, before anything is written; a failed write means
// the client went away, and is nobody's error.
func WriteFrame(w http.ResponseWriter, f Frame) error { return writeBinary(w, f, func() {}) }

// writeBinary is WriteFrame in the daemon's codec form: ok is called
// once f is known to encode, before the first byte is written.
func writeBinary(w http.ResponseWriter, f Frame, ok func()) error {
	h, v, err := f.header()
	if err != nil {
		return err
	}
	ok()
	_ = writeFrame(w, h, nil, v)
	return nil
}

// A payload, FFS1's too, is float64s little-endian, a complex element
// re then im: the float64 payload of its fft.ComplexFloat64s view. On a
// little-endian host it is the slice's memory, one copy; the portable
// loops are a big-endian host's, and the tests' reference. hostIsWire
// says whether this host lays a float64 out as the wire does.
var hostIsWire = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendComplexPayload appends src's wire encoding to dst.
func AppendComplexPayload(dst []byte, src []complex128) []byte {
	return AppendRealPayload(dst, fft.ComplexFloat64s(src))
}

// DecodeComplexPayload fills dst from payload's first 16·len(dst) bytes.
func DecodeComplexPayload(dst []complex128, payload []byte) {
	DecodeRealPayload(fft.ComplexFloat64s(dst), payload)
}

// AppendRealPayload appends src's wire encoding to dst.
func AppendRealPayload(dst []byte, src []float64) []byte {
	if hostIsWire {
		return append(dst, fft.Float64Bytes(src)...)
	}
	return appendRealPortable(dst, src)
}

// DecodeRealPayload fills dst from payload's first 8·len(dst) bytes.
func DecodeRealPayload(dst []float64, payload []byte) {
	payload = payload[:8*len(dst)]
	if hostIsWire {
		copy(fft.Float64Bytes(dst), payload)
		return
	}
	decodeRealPortable(dst, payload)
}

func appendRealPortable(dst []byte, src []float64) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeRealPortable reads element i before it writes it, so it also
// converts in place (payload aliasing dst).
func decodeRealPortable(dst []float64, payload []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
}

// writeChunkBytes is the pooled chunk a big-endian writePayload uses.
const writeChunkBytes = 64 << 10

// writePayload writes data's wire encoding to w: the slice's own bytes
// in one Write on a little-endian host, chunk by chunk elsewhere.
func writePayload(w io.Writer, data []float64) error {
	if hostIsWire {
		_, err := w.Write(fft.Float64Bytes(data))
		return err
	}
	cp := AcquireFrame(writeChunkBytes)
	defer ReleaseFrame(cp)
	for len(data) > 0 {
		k := min(len(data), writeChunkBytes/8)
		if _, err := w.Write(appendRealPortable((*cp)[:0], data[:k])); err != nil {
			return err
		}
		data = data[k:]
	}
	return nil
}
