// The FFS1 shard frame has no production caller: the benchmark's
// serve.*_gbs.shard probes are all that compile against this codec, and
// it leaves with those rows (ROADMAP item 1's benchmark refresh).
//
// One frame carries a contiguous segment of the four-step decomposition
// — a batch of equal-length column or row vectors plus the twiddle
// context a worker needs to execute them without knowing the rest of
// the transform.
//
//	offset  size  field
//	0       4     magic "FFS1"
//	4       1     version (1)
//	5       1     op      (OpColumns, OpRows)
//	6       2     reserved, must be 0
//	8       4     vecLen   (uint32 LE, length of each vector)
//	12      4     vecCount (uint32 LE, number of vectors)
//	16      8     totalN   (uint64 LE, the factored transform's N;
//	                        the twiddle modulus for OpColumns, 0 for OpRows)
//	24      8     start    (uint64 LE, global index of the first vector)
//	32      …     payload  (vecLen·vecCount complex128, float64 LE pairs)
//
// OpColumns asks the worker to forward-FFT every vector and then scale
// vector v's bin k by ω_totalN^{(start+v)·k} — the four-step twiddle
// segment. OpRows asks for the plain forward FFT of every vector. A
// response frame echoes the request header with the transformed
// payload.
//
// Decoding is strict, mirroring DecodeFrame: bad magic/version/op,
// non-zero reserved bytes, vecLen < 1, a total element count over
// MaxFrameElems, an OpColumns header whose totalN is not a positive
// multiple of vecLen or whose start+vecCount exceeds totalN/vecLen, or
// a payload of the wrong byte length are all rejected with errors
// wrapping ErrBadFrame — never a panic, the property pinned by
// FuzzShardFrame. Lengths need not be powers of two: a worker plans any
// vecLen through the facade's mixed-radix/Bluestein routing, and
// non-power-of-two totalN twiddles use the full general-modulus table.
// Encoding is canonical: re-encoding a decoded frame reproduces the
// input bytes exactly.
package serve

import (
	"encoding/binary"
	"fmt"
)

// ShardOp selects what a worker does with a shard frame's vectors.
type ShardOp uint8

const (
	// OpColumns: forward FFT each vector, then apply the four-step
	// twiddle segment ω_totalN^{(start+v)·k}.
	OpColumns ShardOp = iota
	// OpRows: forward FFT each vector.
	OpRows

	shardOpCount
)

// String names the op for logs and error messages.
func (op ShardOp) String() string {
	switch op {
	case OpColumns:
		return "columns"
	case OpRows:
		return "rows"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

const (
	shardMagic     = "FFS1"
	shardVersion   = 1
	shardHeaderLen = 32
)

// ShardFrame is one decoded shard request or response: len(Data) =
// VecLen·VecCount with vector v at Data[v·VecLen:(v+1)·VecLen].
type ShardFrame struct {
	Op     ShardOp
	VecLen int
	TotalN int // twiddle modulus (OpColumns); 0 for OpRows
	Start  int // global index of vector 0
	Data   []complex128
}

// VecCount returns how many vectors the frame carries.
func (f ShardFrame) VecCount() int {
	if f.VecLen <= 0 {
		return 0
	}
	return len(f.Data) / f.VecLen
}

// validateShard checks the header invariants shared by encode and
// decode, so a frame AppendShardFrame accepts is exactly a frame
// DecodeShardFrame would produce.
func validateShard(op ShardOp, vecLen, vecCount, totalN, start int) error {
	if op >= shardOpCount {
		return fmt.Errorf("%w: unknown shard op %d", ErrBadFrame, op)
	}
	if vecLen < 1 {
		return fmt.Errorf("%w: vector length %d is not positive", ErrBadFrame, vecLen)
	}
	if vecCount < 1 {
		return fmt.Errorf("%w: shard carries no vectors", ErrBadFrame)
	}
	if vecLen*vecCount > MaxFrameElems {
		return fmt.Errorf("%w: %d elements exceeds limit %d", ErrBadFrame, vecLen*vecCount, MaxFrameElems)
	}
	switch op {
	case OpColumns:
		if totalN < 2 || totalN%vecLen != 0 {
			return fmt.Errorf("%w: totalN %d is not a positive multiple of vector length %d",
				ErrBadFrame, totalN, vecLen)
		}
		if vecs := totalN / vecLen; vecs < 1 || start < 0 || start+vecCount > vecs {
			return fmt.Errorf("%w: vectors [%d, %d) outside the %d columns of a %d-point transform",
				ErrBadFrame, start, start+vecCount, vecs, totalN)
		}
	case OpRows:
		if totalN != 0 {
			return fmt.Errorf("%w: totalN must be 0 for a rows shard, got %d", ErrBadFrame, totalN)
		}
		if start < 0 {
			return fmt.Errorf("%w: negative start %d", ErrBadFrame, start)
		}
	}
	return nil
}

// AppendShardFrame appends the encoded shard frame to dst and returns
// the extended slice. Data must be a whole number of VecLen-length
// vectors and the header must satisfy the documented invariants.
func AppendShardFrame(dst []byte, f ShardFrame) ([]byte, error) {
	if f.VecLen <= 0 || len(f.Data)%f.VecLen != 0 {
		return nil, fmt.Errorf("%w: %d elements is not a whole number of %d-length vectors",
			ErrBadFrame, len(f.Data), f.VecLen)
	}
	if err := validateShard(f.Op, f.VecLen, f.VecCount(), f.TotalN, f.Start); err != nil {
		return nil, err
	}
	dst = append(dst, shardMagic...)
	dst = append(dst, shardVersion, byte(f.Op), 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.VecLen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.VecCount()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.TotalN))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Start))
	return AppendComplexPayload(dst, f.Data), nil
}

// DecodeShardFrame parses one shard frame from b, which must contain
// exactly the frame — truncated payloads and trailing bytes are both
// rejected.
func DecodeShardFrame(b []byte) (ShardFrame, error) {
	return decodeShard(b, nil, false)
}

// DecodeShardFrameInto parses one shard frame from b, decoding the
// payload directly into dst — which must have exactly vecLen·vecCount
// elements — with no intermediate allocation.
func DecodeShardFrameInto(b []byte, dst []complex128) (ShardFrame, error) {
	return decodeShard(b, dst, true)
}

func decodeShard(b []byte, dst []complex128, into bool) (ShardFrame, error) {
	if len(b) < shardHeaderLen {
		return ShardFrame{}, fmt.Errorf("%w: %d bytes is shorter than the %d-byte shard header",
			ErrBadFrame, len(b), shardHeaderLen)
	}
	if string(b[:4]) != shardMagic {
		return ShardFrame{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, b[:4])
	}
	if b[4] != shardVersion {
		return ShardFrame{}, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, b[4])
	}
	if b[6] != 0 || b[7] != 0 {
		return ShardFrame{}, fmt.Errorf("%w: non-zero reserved bytes", ErrBadFrame)
	}
	op := ShardOp(b[5])
	vecLen := int(binary.LittleEndian.Uint32(b[8:12]))
	vecCount := int(binary.LittleEndian.Uint32(b[12:16]))
	totalN64 := binary.LittleEndian.Uint64(b[16:24])
	start64 := binary.LittleEndian.Uint64(b[24:32])
	// Bound the 64-bit fields before narrowing so a hostile header
	// cannot wrap them into plausible ints.
	if totalN64 > uint64(MaxFrameElems) || start64 > uint64(MaxFrameElems) {
		return ShardFrame{}, fmt.Errorf("%w: header fields exceed limit %d", ErrBadFrame, MaxFrameElems)
	}
	if err := validateShard(op, vecLen, vecCount, int(totalN64), int(start64)); err != nil {
		return ShardFrame{}, err
	}
	payload := b[shardHeaderLen:]
	count := vecLen * vecCount
	if len(payload) != 16*count {
		return ShardFrame{}, fmt.Errorf("%w: payload is %d bytes, want exactly %d (%d×%d vectors)",
			ErrBadFrame, len(payload), 16*count, vecCount, vecLen)
	}
	f := ShardFrame{Op: op, VecLen: vecLen, TotalN: int(totalN64), Start: int(start64)}
	if into {
		if len(dst) != count {
			return ShardFrame{}, fmt.Errorf("%w: destination has %d elements, frame carries %d",
				ErrBadFrame, len(dst), count)
		}
		f.Data = dst
	} else {
		f.Data = make([]complex128, count)
	}
	DecodeComplexPayload(f.Data, payload)
	return f, nil
}
