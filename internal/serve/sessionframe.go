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
//	4       1     version (3)
//	5       1     op      (OpSessOpen … OpSessAck)
//	6       1     flags   (bit 0: FlagResident; a worker acks Open
//	              with it set)
//	7       1     reserved, must be 0
//	8       8     session (uint64 LE, coordinator-chosen session id)
//	16      4     vecLen   (uint32 LE)
//	20      4     vecCount (uint32 LE)
//	24      8     arg0     (uint64 LE, op-specific, see below)
//	32      8     arg1     (uint64 LE, op-specific)
//	40      …     payload  (vecLen·vecCount 16-byte elements as float64 LE
//	              pairs, or the session spec for OpSessOpen)
//
// Op semantics (arg0/arg1 meanings):
//
//   - OpSessOpen: payload is the encoded SessionSpec; vecLen, vecCount,
//     arg0, arg1 are 0. Response: OpSessAck with FlagResident set.
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
//     coordinator's final transpose (fft.UnpackColumns) to unpack.
//
// Version 3 is the version whose cols and rows payloads carry planes;
// version 2 carried samples there, and a peer speaking it is refused
// rather than fed numbers it would misread.
//   - OpSessClose: header-only; drops the session state. Closing an
//     unknown session acks anyway (abort paths are idempotent).
//   - OpSessAck: header-only generic success response.
//
// Decoding is strict and mirrors DecodeFrame: unknown versions/ops,
// non-zero reserved bytes, header/payload length mismatches, and
// malformed specs are rejected with errors wrapping ErrBadFrame, never
// a panic (FuzzSessionFrame). Encoding is canonical: re-encoding a
// decoded frame reproduces the input bytes exactly.
package serve

import (
	"encoding/binary"
	"fmt"

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
	// OpSessRows fetches a worker's finished row block.
	OpSessRows
	// OpSessClose drops the session state.
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
	sessVersion = 3
	// SessionHeaderLen is the fixed FFS2 header size — callers sizing
	// pooled buffers or accounting wire bytes add 16 per payload element.
	SessionHeaderLen = 40
	sessHeaderLen    = SessionHeaderLen

	// FlagResident is set by a worker in its OpSessOpen ack to confirm
	// it holds shards resident across phases.
	FlagResident byte = 1 << 0

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
	Op    SessionOp
	Flags byte
	ID    uint64
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
// size to pass AcquireFrame so AppendSessionFrame never reallocates.
func SessionFrameLen(f SessionFrame) int {
	n := sessHeaderLen + 16*len(f.Data)
	if f.Op == OpSessOpen && f.Spec != nil {
		n += specLen(f.Spec)
	}
	return n
}

// AppendSessionFrame appends the encoded frame to dst and returns the
// extended slice. The frame must satisfy the documented invariants;
// len(Data) must equal VecLen·VecCount.
func AppendSessionFrame(dst []byte, f SessionFrame) ([]byte, error) {
	if err := validateSessionHeader(f); err != nil {
		return nil, err
	}
	if len(f.Data) != f.VecLen*f.VecCount {
		return nil, fmt.Errorf("%w: %d payload elements, header says %d×%d",
			ErrBadFrame, len(f.Data), f.VecCount, f.VecLen)
	}
	if f.Op == OpSessOpen {
		if f.Spec == nil {
			return nil, fmt.Errorf("%w: open frame without a spec", ErrBadFrame)
		}
		if err := f.Spec.Validate(); err != nil {
			return nil, err
		}
	} else if f.Spec != nil {
		return nil, fmt.Errorf("%w: only open frames carry a spec", ErrBadFrame)
	}
	dst = appendSessionHeader(dst, f)
	if f.Op == OpSessOpen {
		dst = appendSpec(dst, f.Spec)
		return dst, nil
	}
	return AppendComplexPayload(dst, f.Data), nil
}

// appendSessionHeader writes the 40-byte header only — the seam the
// streaming writers use to emit a header followed by payload chunks
// encoded straight out of resident buffers.
func appendSessionHeader(dst []byte, f SessionFrame) []byte {
	dst = append(dst, sessMagic...)
	dst = append(dst, sessVersion, byte(f.Op), f.Flags, 0)
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

// sessDecodeMode selects how decodeSession materializes the payload.
type sessDecodeMode int

const (
	sessDecodeAlloc  sessDecodeMode = iota // allocate Data
	sessDecodeInto                         // decode into the caller's buffer
	sessDecodeHeader                       // validate only; leave Data nil
)

// DecodeSessionFrame parses one session frame from b, allocating the
// payload. See DecodeSessionFrameInto for the zero-alloc variant.
func DecodeSessionFrame(b []byte) (SessionFrame, error) {
	return decodeSession(b, nil, sessDecodeAlloc)
}

// DecodeSessionFrameInto parses one session frame from b, decoding the
// complex payload directly into dst — which must have exactly
// vecLen·vecCount elements — so the wire bytes land in the engine's
// scratch (or the transform's output slab) with no intermediate copy.
func DecodeSessionFrameInto(b []byte, dst []complex128) (SessionFrame, error) {
	return decodeSession(b, dst, sessDecodeInto)
}

// DecodeSessionHeader validates the frame (header invariants AND exact
// payload length) but does not materialize the payload: Data stays nil.
// The dispatch step uses it to pick a destination buffer before calling
// DecodeSessionFrameInto, or to scatter strided payloads in place.
func DecodeSessionHeader(b []byte) (SessionFrame, error) {
	return decodeSession(b, nil, sessDecodeHeader)
}

func decodeSession(b []byte, dst []complex128, mode sessDecodeMode) (SessionFrame, error) {
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
	if b[7] != 0 {
		return SessionFrame{}, fmt.Errorf("%w: non-zero reserved byte", ErrBadFrame)
	}
	f := SessionFrame{
		Op:       SessionOp(b[5]),
		Flags:    b[6],
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
	payload := b[sessHeaderLen:]
	if f.Op == OpSessOpen {
		spec, err := decodeSpec(payload)
		if err != nil {
			return SessionFrame{}, err
		}
		if mode != sessDecodeHeader {
			f.Spec = &spec
		}
		return f, nil
	}
	count := f.VecLen * f.VecCount
	if len(payload) != 16*count {
		return SessionFrame{}, fmt.Errorf("%w: payload is %d bytes, want exactly %d (%d×%d vectors)",
			ErrBadFrame, len(payload), 16*count, f.VecCount, f.VecLen)
	}
	if count == 0 || mode == sessDecodeHeader {
		return f, nil
	}
	if mode == sessDecodeInto {
		if len(dst) != count {
			return SessionFrame{}, fmt.Errorf("%w: destination has %d elements, frame carries %d",
				ErrBadFrame, len(dst), count)
		}
		f.Data = dst
	} else {
		f.Data = make([]complex128, count)
	}
	DecodeComplexPayload(f.Data, payload)
	return f, nil
}
