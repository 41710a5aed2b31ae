// The FFS2 session codec is the cluster's wire format: instead of
// round-tripping every vector through the coordinator twice (columns
// out/back, rows out/back), a coordinator opens a *session* on each
// worker, ships that worker's column slab exactly once, lets the workers exchange the four-step
// transpose among themselves, and fetches each worker's finished row
// block exactly once — so each element crosses the coordinator's wire
// at most once in each direction.
//
//	offset  size  field
//	0       4     magic "FFS2"
//	4       1     version (4)
//	5       1     op      (OpSessOpen … OpSessAck)
//	6       2     reserved, must be 0
//	8       8     session (uint64 LE, coordinator-chosen session id)
//	16      4     vecLen   (uint32 LE)
//	20      4     vecCount (uint32 LE)
//	24      8     arg0     (uint64 LE, op-specific, see below)
//	32      8     arg1     (uint64 LE, op-specific)
//	40      …     payload  (vecLen·vecCount 16-byte elements as float64 LE
//	              pairs, or the session spec for OpSessOpen)
//
// Op semantics (arg0/arg1 meanings). A healthy session is three
// requests per worker — open, cols, rows — and OpSessRows ends it:
//
//   - OpSessOpen: payload is the encoded SessionSpec; vecLen, vecCount,
//     arg0, arg1 are 0. Response: OpSessAck.
//   - OpSessCols: the worker's column slab — vecLen = N1, vecCount =
//     ColCount, arg0 = ColStart, arg1 = 0. Each vector is a column
//     packed as split planes (fft.FrameOf: the N1 real parts, then the
//     N1 imaginary parts, in bit-reversed order — fft.PackColumns'
//     output), so the payload's floats are the planes, not samples. The
//     worker FFTs every column, applies the four-step twiddle, keeps its
//     own row block resident, and pushes each peer's row block to that
//     peer as OpSessExchange frames. Response: OpSessAck (no payload —
//     the columns never travel back).
//   - OpSessExchange (worker → worker): vecLen = receiver's RowCount,
//     vecCount = sender's column count, arg0 = first column index,
//     arg1 = receiver's RowStart (echoed for validation). Vector v,
//     element i is the sample at matrix cell (row arg1+i, column
//     arg0+v). Response: OpSessAck.
//   - OpSessRows: request is header-only (vecLen = vecCount = 0); the
//     response carries the worker's finished row block — vecLen = N2,
//     vecCount = RowCount, arg0 = RowStart — each row as the split
//     planes of its transform, in natural bin order, for the
//     coordinator's final transpose (fft.FourStepPlan.UnpackRows) to
//     unpack. The rows step ends the session: its rows buffer is back in
//     the worker's pool before the reply streams, and a second rows
//     request is an unknown session (404). A rows request that announces
//     a payload is refused on its header, before any of it is read.
//   - OpSessClose: header-only; the abort path — a coordinator that
//     abandons an attempt ends the session on every worker that still
//     answers. Closing an unknown or ended session acks anyway.
//   - OpSessAck: header-only generic success response.
//
// Version 4 is the version whose rows request ends the session; version
// 3 had the same layout but left the session open for a close, so an old
// worker under a new coordinator would hold every rows buffer until its
// idle timer — it is refused instead. Version 3 is the one whose cols and
// rows payloads carry planes; version 2 carried samples there.
//
// Decoding is strict and mirrors DecodeFrame: unknown versions/ops,
// non-zero reserved bytes, header/payload length mismatches, and
// malformed specs are rejected with errors wrapping ErrBadFrame, never
// a panic (FuzzSessionFrame). Encoding is canonical: re-encoding a
// decoded frame reproduces the input bytes exactly.
//
// As with FFB1 (codec.go) there are two ways through the codec, and
// they accept exactly the same byte strings (FuzzSessionFrame).
// AppendSessionFrame and DecodeSessionFrame work on a whole frame in
// memory: tests and probes. The wire, on every hop of /fft/shard —
// coordinator to worker, worker to peer, and back — is WriteSessionFrame
// on the sending end and, on the receiving end, readSessionHeader then
// readSessionPayload (the worker's handleSession, between which it checks
// the header against its session) or ReadSessionReply (the client's).
// Each payload byte moves once: the writer sends the header and then the
// transform buffer's own bytes, and the reader checks the header (and
// the declared length) before it reads the payload straight into the
// buffer the next step works in. No byte frame of a session payload
// exists anywhere.
package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"codeletfft/internal/fft"
)

// SessionOp selects what a session frame does.
type SessionOp uint8

const (
	// OpSessOpen establishes a resident session from a SessionSpec.
	OpSessOpen SessionOp = iota
	// OpSessCols ships a worker's column slab for the resident phase.
	OpSessCols
	// OpSessExchange carries one worker's contribution to a peer's
	// resident row block (the on-worker four-step transpose).
	OpSessExchange
	// OpSessRows fetches a worker's finished row block and ends the
	// session.
	OpSessRows
	// OpSessClose ends the session: the abort path.
	OpSessClose
	// OpSessAck is the generic header-only success response.
	OpSessAck

	sessOpCount
)

// String names the op for logs and error messages.
func (op SessionOp) String() string {
	switch op {
	case OpSessOpen:
		return "open"
	case OpSessCols:
		return "cols"
	case OpSessExchange:
		return "exchange"
	case OpSessRows:
		return "rows"
	case OpSessClose:
		return "close"
	case OpSessAck:
		return "ack"
	default:
		return fmt.Sprintf("sessop(%d)", uint8(op))
	}
}

const (
	sessMagic   = "FFS2"
	sessVersion = 4
	// SessionHeaderLen is the fixed FFS2 header size — callers sizing
	// pooled buffers or accounting wire bytes add 16 per payload element.
	SessionHeaderLen = 40
	sessHeaderLen    = SessionHeaderLen

	// maxSessionPeers bounds the peer table so a hostile spec cannot
	// drive a huge allocation.
	maxSessionPeers = 4096
)

// PeerRange names one peer worker and the row block it owns.
type PeerRange struct {
	Addr               string
	RowStart, RowCount int
}

// SessionSpec is the OpSessOpen payload: the four-step geometry — two
// power-of-two factors, the only kind fft.NewFourStep builds — and
// this worker's slice of it. Peers lists the OTHER workers' row blocks
// (self excluded) so the worker knows where to push each exchange
// sub-block; Peers' ranges plus [RowStart, RowStart+RowCount) must tile
// [0, N1) exactly.
type SessionSpec struct {
	N1, N2             int
	ColStart, ColCount int // columns this worker owns (of N2)
	RowStart, RowCount int // rows this worker owns (of N1)
	Peers              []PeerRange
}

// Validate checks the spec invariants shared by encode and decode.
func (s SessionSpec) Validate() error {
	if fft.Log2(s.N1) < 1 || fft.Log2(s.N2) < 1 {
		return fmt.Errorf("%w: four-step factors %d×%d must both be powers of two ≥ 2", ErrBadFrame, s.N1, s.N2)
	}
	if s.N1 > MaxFrameElems || s.N2 > MaxFrameElems || s.N1*s.N2 > MaxFrameElems {
		return fmt.Errorf("%w: transform %d×%d exceeds the %d-element limit", ErrBadFrame, s.N1, s.N2, MaxFrameElems)
	}
	if s.ColCount < 1 || s.ColStart < 0 || s.ColStart+s.ColCount > s.N2 {
		return fmt.Errorf("%w: columns [%d, %d) outside [0, %d)", ErrBadFrame, s.ColStart, s.ColStart+s.ColCount, s.N2)
	}
	if s.RowCount < 1 || s.RowStart < 0 || s.RowStart+s.RowCount > s.N1 {
		return fmt.Errorf("%w: rows [%d, %d) outside [0, %d)", ErrBadFrame, s.RowStart, s.RowStart+s.RowCount, s.N1)
	}
	if len(s.Peers) > maxSessionPeers {
		return fmt.Errorf("%w: %d peers exceeds limit %d", ErrBadFrame, len(s.Peers), maxSessionPeers)
	}
	// Own block plus the peers' blocks must tile [0, N1) exactly: total
	// row count N1 and no overlaps. Sum plus pairwise disjointness of
	// validated sub-ranges of [0, N1) implies the tiling.
	total := s.RowCount
	for i, p := range s.Peers {
		if p.Addr == "" || len(p.Addr) > 255 {
			return fmt.Errorf("%w: peer %d address length %d outside [1, 255]", ErrBadFrame, i, len(p.Addr))
		}
		if p.RowCount < 1 || p.RowStart < 0 || p.RowStart+p.RowCount > s.N1 {
			return fmt.Errorf("%w: peer %d rows [%d, %d) outside [0, %d)", ErrBadFrame, i, p.RowStart, p.RowStart+p.RowCount, s.N1)
		}
		total += p.RowCount
		if overlap(p.RowStart, p.RowCount, s.RowStart, s.RowCount) {
			return fmt.Errorf("%w: peer %d rows overlap the worker's own block", ErrBadFrame, i)
		}
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

// specLen returns the encoded byte length of the spec.
func specLen(s *SessionSpec) int {
	n := 26 // 6×uint32 + uint16 peer count
	for _, p := range s.Peers {
		n += 10 + len(p.Addr) // 2×uint32 + uint16 len + addr
	}
	return n
}

func appendSpec(dst []byte, s *SessionSpec) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.N1))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.N2))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.ColStart))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.ColCount))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.RowStart))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.RowCount))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.Peers)))
	for _, p := range s.Peers {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.RowStart))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.RowCount))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Addr)))
		dst = append(dst, p.Addr...)
	}
	return dst
}

func decodeSpec(b []byte) (SessionSpec, error) {
	var s SessionSpec
	if len(b) < 26 {
		return s, fmt.Errorf("%w: %d bytes is shorter than the %d-byte spec header", ErrBadFrame, len(b), 26)
	}
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(b[off:])) }
	s.N1, s.N2 = u32(0), u32(4)
	s.ColStart, s.ColCount = u32(8), u32(12)
	s.RowStart, s.RowCount = u32(16), u32(20)
	peers := int(binary.LittleEndian.Uint16(b[24:]))
	off := 26
	if peers > 0 {
		s.Peers = make([]PeerRange, peers)
		for i := range s.Peers {
			if len(b) < off+10 {
				return s, fmt.Errorf("%w: truncated peer table", ErrBadFrame)
			}
			s.Peers[i].RowStart = int(binary.LittleEndian.Uint32(b[off:]))
			s.Peers[i].RowCount = int(binary.LittleEndian.Uint32(b[off+4:]))
			alen := int(binary.LittleEndian.Uint16(b[off+8:]))
			off += 10
			if len(b) < off+alen {
				return s, fmt.Errorf("%w: truncated peer address", ErrBadFrame)
			}
			s.Peers[i].Addr = string(b[off : off+alen])
			off += alen
		}
	}
	if off != len(b) {
		return s, fmt.Errorf("%w: %d trailing bytes after the spec", ErrBadFrame, len(b)-off)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// SessionFrame is one decoded FFS2 frame. Data (when the op carries a
// complex payload) holds VecLen·VecCount elements with vector v at
// Data[v·VecLen:(v+1)·VecLen]; Spec is set for OpSessOpen only.
type SessionFrame struct {
	Op SessionOp
	ID uint64
	// VecLen and VecCount shape the complex payload; Arg0 and Arg1 are
	// op-specific indices (see the package comment).
	VecLen, VecCount int
	Arg0, Arg1       int
	Spec             *SessionSpec
	Data             []complex128
}

// validateSessionHeader checks the header invariants shared by encode
// and decode.
func validateSessionHeader(f SessionFrame) error {
	if f.Op >= sessOpCount {
		return fmt.Errorf("%w: unknown session op %d", ErrBadFrame, f.Op)
	}
	if f.VecLen < 0 || f.VecCount < 0 || f.Arg0 < 0 || f.Arg1 < 0 {
		return fmt.Errorf("%w: negative header field", ErrBadFrame)
	}
	if (f.VecLen == 0) != (f.VecCount == 0) {
		return fmt.Errorf("%w: vecLen %d and vecCount %d must be zero together", ErrBadFrame, f.VecLen, f.VecCount)
	}
	if f.VecLen > 0 && f.VecLen*f.VecCount > MaxFrameElems {
		return fmt.Errorf("%w: %d elements exceeds limit %d", ErrBadFrame, f.VecLen*f.VecCount, MaxFrameElems)
	}
	switch f.Op {
	case OpSessOpen:
		if f.VecLen != 0 || f.Arg0 != 0 || f.Arg1 != 0 {
			return fmt.Errorf("%w: open frames carry only a spec", ErrBadFrame)
		}
	case OpSessCols:
		if f.VecLen == 0 {
			return fmt.Errorf("%w: cols frame carries no vectors", ErrBadFrame)
		}
		if f.Arg1 != 0 {
			return fmt.Errorf("%w: cols arg1 must be 0", ErrBadFrame)
		}
	case OpSessExchange:
		if f.VecLen == 0 {
			return fmt.Errorf("%w: exchange frame carries no vectors", ErrBadFrame)
		}
	case OpSessClose, OpSessAck:
		if f.VecLen != 0 || f.Arg0 != 0 || f.Arg1 != 0 {
			return fmt.Errorf("%w: %s frames are header-only", ErrBadFrame, f.Op)
		}
	}
	return nil
}

// SessionFrameLen returns the exact encoded byte length of f — the
// size to pass AcquireFrame so AppendSessionFrame never reallocates,
// and the Content-Length WriteSessionFrame declares.
func SessionFrameLen(f SessionFrame) int {
	n := sessHeaderLen + 16*len(f.Data)
	if f.Op == OpSessOpen && f.Spec != nil {
		n += specLen(f.Spec)
	}
	return n
}

// CheckSessionFrame is what both encoders require of a frame: the
// documented header invariants, len(Data) = VecLen·VecCount, and a
// valid spec on an open frame and on no other. A transport runs it
// before it sends anything, so a frame the caller got wrong never
// reaches a worker.
func CheckSessionFrame(f SessionFrame) error {
	if err := validateSessionHeader(f); err != nil {
		return err
	}
	if len(f.Data) != f.VecLen*f.VecCount {
		return fmt.Errorf("%w: %d payload elements, header says %d×%d",
			ErrBadFrame, len(f.Data), f.VecCount, f.VecLen)
	}
	if f.Op == OpSessOpen {
		if f.Spec == nil {
			return fmt.Errorf("%w: open frame without a spec", ErrBadFrame)
		}
		return f.Spec.Validate()
	}
	if f.Spec != nil {
		return fmt.Errorf("%w: only open frames carry a spec", ErrBadFrame)
	}
	return nil
}

// AppendSessionFrame appends the encoded frame to dst and returns the
// extended slice: the whole frame in memory, for tests and probes. The
// wire path is WriteSessionFrame.
func AppendSessionFrame(dst []byte, f SessionFrame) ([]byte, error) {
	if err := CheckSessionFrame(f); err != nil {
		return nil, err
	}
	dst = appendSessionHeader(dst, f)
	if f.Op == OpSessOpen {
		return appendSpec(dst, f.Spec), nil
	}
	return AppendComplexPayload(dst, f.Data), nil
}

// WriteSessionFrame writes f to w: the 40-byte header (and an open's
// spec) from one pooled buffer, then f.Data's own bytes
// (writeComplexPayload), so no contiguous copy of the frame ever
// exists. When w is an http.ResponseWriter, a Content-Type and a
// Content-Length go out first and the reply is not chunked. An error is
// f's — whatever AppendSessionFrame refuses — returned before anything
// is written, or w's.
func WriteSessionFrame(w io.Writer, f SessionFrame) error {
	if err := CheckSessionFrame(f); err != nil {
		return err
	}
	hp := AcquireFrame(SessionFrameLen(f) - 16*len(f.Data))
	defer ReleaseFrame(hp)
	b := appendSessionHeader((*hp)[:0], f)
	if f.Op == OpSessOpen {
		b = appendSpec(b, f.Spec)
	}
	if hw, ok := w.(http.ResponseWriter); ok {
		hw.Header().Set("Content-Type", "application/octet-stream")
		hw.Header().Set("Content-Length", strconv.Itoa(SessionFrameLen(f)))
	}
	if _, err := w.Write(b); err != nil || len(f.Data) == 0 {
		return err
	}
	return writeComplexPayload(w, f.Data)
}

// appendSessionHeader writes the 40-byte header only.
func appendSessionHeader(dst []byte, f SessionFrame) []byte {
	dst = append(dst, sessMagic...)
	dst = append(dst, sessVersion, byte(f.Op), 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, f.ID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.VecLen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.VecCount))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Arg0))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Arg1))
	return dst
}

// EncodeSessionFrame encodes the frame into a fresh buffer (tests and
// one-off paths; the hot path encodes into pooled buffers via
// AppendSessionFrame).
func EncodeSessionFrame(f SessionFrame) ([]byte, error) {
	return AppendSessionFrame(make([]byte, 0, SessionFrameLen(f)), f)
}

// DecodeSessionFrame parses one session frame from b, allocating the
// payload. See DecodeSessionFrameInto for the zero-alloc variant.
func DecodeSessionFrame(b []byte) (SessionFrame, error) {
	return decodeSession(b, nil, false)
}

// DecodeSessionFrameInto parses one session frame from b, decoding the
// complex payload directly into dst, which must have exactly
// vecLen·vecCount elements.
func DecodeSessionFrameInto(b []byte, dst []complex128) (SessionFrame, error) {
	return decodeSession(b, dst, true)
}

func decodeSession(b []byte, dst []complex128, into bool) (SessionFrame, error) {
	f, err := parseSessionHeader(b)
	if err != nil {
		return SessionFrame{}, err
	}
	payload := b[sessHeaderLen:]
	if f.Op == OpSessOpen {
		spec, err := decodeSpec(payload)
		if err != nil {
			return SessionFrame{}, err
		}
		f.Spec = &spec
		return f, nil
	}
	count := f.VecLen * f.VecCount
	if len(payload) != 16*count {
		return SessionFrame{}, errSessionPayloadLen(f, int64(len(payload)))
	}
	if count == 0 {
		return f, nil
	}
	if into {
		if err := checkInto(f, dst); err != nil {
			return SessionFrame{}, err
		}
		f.Data = dst
	} else {
		f.Data = make([]complex128, count)
	}
	DecodeComplexPayload(f.Data, payload)
	return f, nil
}

// checkInto refuses a destination that does not hold f's payload; a nil
// one takes none, so a frame that announces vectors is refused.
func checkInto(f SessionFrame, dst []complex128) error {
	switch count := f.VecLen * f.VecCount; {
	case dst == nil && count > 0:
		return fmt.Errorf("%w: %s frame carries %d elements, none expected", ErrBadFrame, f.Op, count)
	case len(dst) != count:
		return fmt.Errorf("%w: destination has %d elements, frame carries %d", ErrBadFrame, len(dst), count)
	}
	return nil
}

// errSessionPayloadLen names a frame whose bytes after the header are
// not the payload its header announces.
func errSessionPayloadLen(f SessionFrame, got int64) error {
	return fmt.Errorf("%w: payload is %d bytes, want exactly %d (%d×%d vectors)",
		ErrBadFrame, got, 16*f.VecLen*f.VecCount, f.VecCount, f.VecLen)
}

// parseSessionHeader validates the first sessHeaderLen bytes of b.
func parseSessionHeader(b []byte) (SessionFrame, error) {
	if len(b) < sessHeaderLen {
		return SessionFrame{}, fmt.Errorf("%w: %d bytes is shorter than the %d-byte session header",
			ErrBadFrame, len(b), sessHeaderLen)
	}
	if string(b[:4]) != sessMagic {
		return SessionFrame{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, b[:4])
	}
	if b[4] != sessVersion {
		return SessionFrame{}, fmt.Errorf("%w: unsupported session version %d", ErrBadFrame, b[4])
	}
	if b[6] != 0 || b[7] != 0 {
		return SessionFrame{}, fmt.Errorf("%w: non-zero reserved byte", ErrBadFrame)
	}
	f := SessionFrame{
		Op:       SessionOp(b[5]),
		ID:       binary.LittleEndian.Uint64(b[8:16]),
		VecLen:   int(binary.LittleEndian.Uint32(b[16:20])),
		VecCount: int(binary.LittleEndian.Uint32(b[20:24])),
	}
	arg0 := binary.LittleEndian.Uint64(b[24:32])
	arg1 := binary.LittleEndian.Uint64(b[32:40])
	if arg0 > uint64(MaxFrameElems) || arg1 > uint64(MaxFrameElems) {
		return SessionFrame{}, fmt.Errorf("%w: header fields exceed limit %d", ErrBadFrame, MaxFrameElems)
	}
	f.Arg0, f.Arg1 = int(arg0), int(arg1)
	if err := validateSessionHeader(f); err != nil {
		return SessionFrame{}, err
	}
	return f, nil
}

// maxSpecLen is the longest spec that can validate: the 26-byte spec
// header and maxSessionPeers peers of the longest address.
const maxSpecLen = 26 + maxSessionPeers*(10+255)

// ReadSessionReply reads a worker's 200 reply to a session frame — the
// streaming DecodeSessionFrameInto, accepting exactly the byte strings it
// accepts (FuzzSessionFrame) — its payload straight into into, which
// must hold exactly VecLen·VecCount elements; with into nil the reply
// must be header-only, and one whose header announces a payload is
// refused before any of it is read. declared is the body's announced
// length (a Content-Length), −1 when unknown; one that disagrees with
// the header is refused before any payload is read. On error into may
// hold part of the payload. A malformed frame is ErrBadFrame; other
// errors are the body's own. PostSessionFrame reads every reply through
// it.
func ReadSessionReply(body io.Reader, declared int64, into []complex128) (SessionFrame, error) {
	hp := AcquireFrame(sessHeaderLen)
	defer ReleaseFrame(hp)
	f, err := readSessionHeader(body, declared, *hp)
	if err != nil {
		return SessionFrame{}, err
	}
	if err := readSessionPayload(body, &f, declared, into, *hp); err != nil {
		return SessionFrame{}, err
	}
	return f, nil
}

// PeekSessionOp reads body as far as the op of the session frame at its
// head (the magic and the op byte at offset 5) and returns that op with
// a reader that yields body whole again; ok is false when body does not
// start like a session frame. It decodes nothing else: it is for a hop
// that keys on the op and passes the frame on unread.
func PeekSessionOp(body io.Reader) (op SessionOp, whole io.Reader, ok bool) {
	b := make([]byte, 6)
	n, _ := io.ReadFull(body, b)
	ok = n == len(b) && string(b[:4]) == sessMagic
	return SessionOp(b[5]), io.MultiReader(bytes.NewReader(b[:n]), body), ok
}

// readSessionHeader reads and validates the header into hb (at least
// sessHeaderLen bytes) and holds declared to it: exactly the frame for
// a payload op, a plausible spec length for an open.
func readSessionHeader(body io.Reader, declared int64, hb []byte) (SessionFrame, error) {
	n, err := io.ReadFull(body, hb[:sessHeaderLen])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return SessionFrame{}, fmt.Errorf("reading session header: %w", err)
	}
	f, err := parseSessionHeader(hb[:n])
	if err != nil {
		return SessionFrame{}, err
	}
	switch {
	case declared < 0:
	case f.Op == OpSessOpen:
		if declared < sessHeaderLen+26 || declared > sessHeaderLen+maxSpecLen {
			return SessionFrame{}, fmt.Errorf("%w: a %d-byte body cannot hold an open frame", ErrBadFrame, declared)
		}
	case declared != int64(sessHeaderLen+16*f.VecLen*f.VecCount):
		return SessionFrame{}, errSessionPayloadLen(f, declared-sessHeaderLen)
	}
	return f, nil
}

// readSessionPayload reads what follows f's header — an open's spec, or
// the complex payload straight into into, which must hold exactly
// VecLen·VecCount elements (nil for a header-only frame: checkInto) — and
// probes for trailing bytes with probe (at least one byte of scratch).
func readSessionPayload(body io.Reader, f *SessionFrame, declared int64, into []complex128, probe []byte) error {
	if f.Op == OpSessOpen {
		// The header does not carry the spec's length: read at most the
		// longest spec there is, and one byte more to tell a longer body.
		b, err := io.ReadAll(io.LimitReader(body, maxSpecLen+1))
		if err != nil {
			return fmt.Errorf("reading session spec: %w", err)
		}
		if declared >= 0 && declared != int64(sessHeaderLen+len(b)) {
			return fmt.Errorf("%w: spec is %d bytes, the body declares %d", ErrBadFrame, len(b), declared-sessHeaderLen)
		}
		spec, err := decodeSpec(b)
		if err != nil {
			return err
		}
		f.Spec = &spec
	} else if err := checkInto(*f, into); err != nil {
		return err
	} else if len(into) > 0 {
		got, err := io.ReadFull(body, fft.ComplexBytes(into))
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return errSessionPayloadLen(*f, int64(got))
		} else if err != nil {
			return fmt.Errorf("reading session payload: %w", err)
		}
		f.Data = into
		if !hostIsWire {
			decodeComplexPortable(f.Data, fft.ComplexBytes(f.Data))
		}
	}
	if n, _ := body.Read(probe[:1]); n > 0 {
		return fmt.Errorf("%w: bytes after the frame", ErrBadFrame)
	}
	return nil
}
