// The session view of a frame (codec.go) is the cluster's protocol,
// whose worker half is session.go. A healthy session is three requests
// per worker — open, cols, rows — and its ops carry:
//
//   - OpSessOpen: the payload is the SessionSpec, arg0 its length.
//   - OpSessCols: the worker's column slab — vecLen = N1, vecCount =
//     ColCount, arg0 = ColStart — each column a vector in natural order
//     (fft.FourStepPlan.ColumnsFrom's output, conjugated for an
//     inverse). The worker transforms them, keeps its own rows and
//     pushes each peer's rows to that peer as an OpSessExchange.
//   - OpSessExchange (worker → worker): vecLen = the receiver's
//     RowCount, vecCount = the sender's column count, arg0 = its first
//     column, arg1 = the receiver's RowStart; vector v, element i is
//     bin arg1+i of column arg0+v, unscaled: the receiver scales and
//     transposes it into cell (row arg1+i, column arg0+v).
//   - OpSessRows: a header-only request, refused on its header if it
//     announces a payload. The reply carries the finished rows — vecLen
//     = N2, vecCount = RowCount, arg0 = RowStart — each row's transform
//     in natural order, for fft.FourStepPlan.TransposeRows, and ends the
//     session (session.go).
//   - OpSessClose: header-only, the abort path; it acks whether or not
//     the session is open. OpSessAck: the header-only reply to the
//     others.
//
// A hop of /fft/shard is WriteSessionFrame, then readHeader and
// readSession on a worker, or ReadSessionReply on a client.
package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"codeletfft/internal/fft"
)

const (
	// SessionHeaderLen is the frame header's size: a frame on the wire
	// is this and 16 bytes per payload element.
	SessionHeaderLen = headerLen

	// maxSessionPeers bounds the peer table so a hostile spec cannot
	// drive a huge allocation; maxSpecLen is the longest spec that can
	// validate, its peers' addresses at their longest (specLen).
	maxSessionPeers = 4096
	specHeadLen     = 26
	maxSpecLen      = specHeadLen + maxSessionPeers*(10+255)
)

// PeerRange names a peer worker and the row block it owns.
type PeerRange struct {
	Addr               string
	RowStart, RowCount int
}

// SessionSpec is the OpSessOpen payload: the four-step geometry — two
// power-of-two factors, as fft.NewFourStep builds — and this worker's
// slice of it. Peers are the other workers' row blocks, where its
// exchanges go; theirs and its own must tile [0, N1) exactly.
type SessionSpec struct {
	N1, N2             int
	ColStart, ColCount int // columns this worker owns (of N2)
	RowStart, RowCount int // rows this worker owns (of N1)
	Peers              []PeerRange
}

// Validate checks the spec invariants shared by encode and decode.
func (s SessionSpec) Validate() error {
	outside := func(start, count, n int) bool { return count < 1 || start < 0 || start+count > n }
	switch {
	case fft.Log2(s.N1) < 1 || fft.Log2(s.N2) < 1:
		return fmt.Errorf("%w: four-step factors %d×%d must both be powers of two ≥ 2", ErrBadFrame, s.N1, s.N2)
	case s.N1 > MaxFrameElems || s.N2 > MaxFrameElems || s.N1*s.N2 > MaxFrameElems:
		return fmt.Errorf("%w: transform %d×%d exceeds the %d-element limit", ErrBadFrame, s.N1, s.N2, MaxFrameElems)
	case outside(s.ColStart, s.ColCount, s.N2) || outside(s.RowStart, s.RowCount, s.N1):
		return fmt.Errorf("%w: columns [%d, +%d) or rows [%d, +%d) outside %d×%d", ErrBadFrame, s.ColStart, s.ColCount, s.RowStart, s.RowCount, s.N1, s.N2)
	case len(s.Peers) > maxSessionPeers:
		return fmt.Errorf("%w: %d peers exceeds limit %d", ErrBadFrame, len(s.Peers), maxSessionPeers)
	}
	// N1 rows in blocks of [0, N1) that do not overlap tile it.
	total := s.RowCount
	for i, p := range s.Peers {
		switch {
		case p.Addr == "" || len(p.Addr) > 255:
			return fmt.Errorf("%w: peer %d address length %d outside [1, 255]", ErrBadFrame, i, len(p.Addr))
		case outside(p.RowStart, p.RowCount, s.N1):
			return fmt.Errorf("%w: peer %d rows [%d, +%d) outside [0, %d)", ErrBadFrame, i, p.RowStart, p.RowCount, s.N1)
		case overlap(p.RowStart, p.RowCount, s.RowStart, s.RowCount):
			return fmt.Errorf("%w: peer %d rows overlap the worker's own block", ErrBadFrame, i)
		}
		total += p.RowCount
		for j := 0; j < i; j++ {
			if overlap(p.RowStart, p.RowCount, s.Peers[j].RowStart, s.Peers[j].RowCount) {
				return fmt.Errorf("%w: peers %d and %d have overlapping row blocks", ErrBadFrame, j, i)
			}
		}
	}
	if total != s.N1 {
		return fmt.Errorf("%w: row blocks cover %d of %d rows", ErrBadFrame, total, s.N1)
	}
	return nil
}

func overlap(aStart, aCount, bStart, bCount int) bool {
	return aStart < bStart+bCount && bStart < aStart+aCount
}

// specLen is the encoded byte length of the spec: six uint32s and a
// uint16 peer count, then per peer two uint32s, the uint16 length of
// its address and the address.
func specLen(s *SessionSpec) int {
	n := specHeadLen
	for _, p := range s.Peers {
		n += 10 + len(p.Addr)
	}
	return n
}

func appendSpec(dst []byte, s *SessionSpec) []byte {
	le := binary.LittleEndian
	for _, v := range [...]int{s.N1, s.N2, s.ColStart, s.ColCount, s.RowStart, s.RowCount} {
		dst = le.AppendUint32(dst, uint32(v))
	}
	dst = le.AppendUint16(dst, uint16(len(s.Peers)))
	for _, p := range s.Peers {
		dst = le.AppendUint16(le.AppendUint32(le.AppendUint32(dst, uint32(p.RowStart)), uint32(p.RowCount)), uint16(len(p.Addr)))
		dst = append(dst, p.Addr...)
	}
	return dst
}

// decodeSpec parses the spec that is exactly b, and validates it.
func decodeSpec(b []byte) (SessionSpec, error) {
	var s SessionSpec
	short := false
	next := func(n int) (v int) { // the next n-byte little-endian int
		if short = short || len(b) < n; short {
			return 0
		}
		for i := n - 1; i >= 0; i-- {
			v = v<<8 | int(b[i])
		}
		b = b[n:]
		return v
	}
	for _, f := range [...]*int{&s.N1, &s.N2, &s.ColStart, &s.ColCount, &s.RowStart, &s.RowCount} {
		*f = next(4)
	}
	for peers := next(2); peers > 0 && !short; peers-- {
		p := PeerRange{RowStart: next(4), RowCount: next(4)}
		n := next(2)
		if short = short || len(b) < n; !short {
			p.Addr, b = string(b[:n]), b[n:]
			s.Peers = append(s.Peers, p)
		}
	}
	if short || len(b) > 0 {
		return s, fmt.Errorf("%w: a spec whose length is not its encoding's", ErrBadFrame)
	}
	return s, s.Validate()
}

// SessionFrame is the session view of a frame. Data holds VecLen·VecCount
// elements with vector v at Data[v·VecLen:(v+1)·VecLen]; Spec is set
// for OpSessOpen only, whose Arg0 (its spec's length on the wire) is 0
// here.
type SessionFrame struct {
	Op               SessionOp
	ID               uint64
	VecLen, VecCount int
	Arg0, Arg1       int
	Spec             *SessionSpec
	Data             []complex128
}

// header validates f for the encoders: the op's rule, len(Data) =
// VecLen·VecCount, and a valid spec on an open frame and no other.
func (f SessionFrame) header() (FrameHeader, error) {
	h := FrameHeader{Op: f.Op, ID: f.ID, VecLen: f.VecLen, VecCount: f.VecCount, Arg0: f.Arg0, Arg1: f.Arg1}
	switch {
	case len(f.Data) != f.VecLen*f.VecCount:
		return h, fmt.Errorf("%w: %d payload elements, header says %d×%d", ErrBadFrame, len(f.Data), f.VecCount, f.VecLen)
	case (f.Op == OpSessOpen) != (f.Spec != nil):
		return h, fmt.Errorf("%w: a spec rides on open frames, and on every one", ErrBadFrame)
	case f.Spec != nil && f.Arg0 != 0:
		return h, fmt.Errorf("%w: open frames carry only a spec", ErrBadFrame)
	case f.Spec != nil:
		if err := f.Spec.Validate(); err != nil {
			return h, err
		}
		h.Arg0 = specLen(f.Spec)
	}
	return h, h.validate(false)
}

// sessionOf views h over its payload: data, or an open's spec.
func sessionOf(h FrameHeader, payload []byte, data []complex128) (SessionFrame, error) {
	f := SessionFrame{Op: h.Op, ID: h.ID, VecLen: h.VecLen, VecCount: h.VecCount, Arg0: h.Arg0, Arg1: h.Arg1, Data: data}
	if h.Op != OpSessOpen {
		return f, nil
	}
	spec, err := decodeSpec(payload)
	f.Arg0, f.Spec = 0, &spec
	return f, err
}

// SessionFrameLen returns the exact encoded byte length of f: the
// Content-Length WriteSessionFrame declares.
func SessionFrameLen(f SessionFrame) int {
	h, _ := f.header()
	return headerLen + h.payloadLen()
}

// AppendSessionFrame appends the encoded frame to dst: the whole frame
// in memory, for tests and probes. The wire's is WriteSessionFrame.
func AppendSessionFrame(dst []byte, f SessionFrame) ([]byte, error) {
	h, err := f.header()
	if err != nil {
		return nil, err
	}
	dst = appendHeader(dst, h)
	if f.Spec != nil {
		return appendSpec(dst, f.Spec), nil
	}
	return AppendComplexPayload(dst, f.Data), nil
}

// WriteSessionFrame writes f to w. An error is what AppendSessionFrame
// refuses, before anything is written, or w's.
func WriteSessionFrame(w io.Writer, f SessionFrame) error {
	h, err := f.header()
	if err != nil {
		return err
	}
	return writeFrame(w, h, f.Spec, fft.ComplexFloat64s(f.Data))
}

// EncodeSessionFrame encodes the frame into a fresh buffer.
func EncodeSessionFrame(f SessionFrame) ([]byte, error) {
	return AppendSessionFrame(make([]byte, 0, SessionFrameLen(f)), f)
}

// DecodeSessionFrame parses the session frame that is exactly b.
func DecodeSessionFrame(b []byte) (SessionFrame, error) {
	return decodeSession(b, nil, false)
}

// DecodeSessionFrameInto is DecodeSessionFrame with the payload
// decoded into dst, which must hold it exactly.
func DecodeSessionFrameInto(b []byte, dst []complex128) (SessionFrame, error) {
	return decodeSession(b, dst, true)
}

func decodeSession(b []byte, dst []complex128, into bool) (SessionFrame, error) {
	h, payload, err := decodeFrame(b, false)
	if err != nil {
		return SessionFrame{}, err
	}
	switch n := h.VecLen * h.VecCount; {
	case n == 0:
		dst = nil
	case !into:
		dst = make([]complex128, n)
	}
	if err := checkInto(h, dst); err != nil {
		return SessionFrame{}, err
	}
	DecodeComplexPayload(dst, payload)
	return sessionOf(h, payload, dst)
}

// checkInto refuses a destination that does not hold h's payload
// exactly; a nil one holds none.
func checkInto(h FrameHeader, dst []complex128) error {
	switch count := h.VecLen * h.VecCount; {
	case dst == nil && count > 0:
		return fmt.Errorf("%w: %s frame carries %d elements, none expected", ErrBadFrame, h.Op, count)
	case len(dst) != count:
		return fmt.Errorf("%w: destination has %d elements, frame carries %d", ErrBadFrame, len(dst), count)
	}
	return nil
}

// ReadSessionReply is the streaming DecodeSessionFrameInto: how
// PostSessionFrame reads a reply. On error into may hold part of the
// payload.
func ReadSessionReply(body io.Reader, declared int64, into []complex128) (SessionFrame, error) {
	h, err := readHeader(body, declared, false, nil)
	if err != nil {
		return SessionFrame{}, err
	}
	return readSession(body, h, into)
}

// readSession reads what follows a session frame's header: an open's
// spec, or the payload straight into into (checkInto, so a payload
// nobody gave room for is refused unread).
func readSession(body io.Reader, h FrameHeader, into []complex128) (SessionFrame, error) {
	if err := checkInto(h, into); err != nil {
		return SessionFrame{}, err
	}
	if len(into) == 0 {
		into = nil // the spec, or nothing, into a pooled buffer
	}
	buf, err := readPayload(body, h, into)
	if err != nil {
		return SessionFrame{}, err
	}
	var spec []byte
	if buf != nil {
		defer ReleaseComplex(buf)
		spec = fft.ComplexBytes(*buf)[:h.payloadLen()]
	}
	return sessionOf(h, spec, into)
}

// PeekSessionOp reads body as far as the op of the session frame at its
// head and returns it with a reader that yields body whole again; ok is
// false when body does not start like a session frame. It is for a hop
// that keys on the op and passes the frame on unread.
func PeekSessionOp(body io.Reader) (op SessionOp, whole io.Reader, ok bool) {
	b := make([]byte, 6)
	n, _ := io.ReadFull(body, b)
	op = SessionOp(b[5])
	ok = n == len(b) && string(b[:4]) == frameMagic && op >= kindCount
	return op, io.MultiReader(bytes.NewReader(b[:n]), body), ok
}
