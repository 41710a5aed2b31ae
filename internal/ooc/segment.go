package ooc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"codeletfft/internal/fft"
)

// Spill-segment on-disk format. A spill file is a flat array of
// equally-sized segments; segment i lives at byte offset
// i·(segHeaderLen + segElems·16). Each segment is a 64-byte header
// followed by segElems complex128 payload values in native byte order
// (spill files never leave the machine that wrote them; the header is
// explicit little-endian so a corrupt or foreign file is rejected, not
// misread).
//
//	[0:4)   magic "OOCS"
//	[4:6)   format version (currently 1)
//	[6:8)   reserved, must be zero
//	[8:16)  segment index
//	[16:24) payload element count
//	[24:28) CRC-32C of the payload bytes
//	[28:32) CRC-32C of header bytes [0:28)
//	[32:64) zero padding to a 64-byte boundary
//
// Every read verifies both checksums, the magic, the version, and that
// the header's index/element count match what the reader expects, so a
// truncated, bit-flipped, or wrong-version segment surfaces as
// ErrCorruptSegment — never as silently wrong transform output.
const (
	segMagic     uint32 = 0x53434F4F // "OOCS", little-endian
	segVersion   uint16 = 1
	segHeaderLen        = 64
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptSegment reports a spill segment that failed integrity
// verification: short file, bad magic or version, header/payload
// checksum mismatch, or a header describing a different segment than
// the one requested. Errors returned by segment reads wrap it, so
// callers test with errors.Is(err, ErrCorruptSegment).
var ErrCorruptSegment = errors.New("ooc: corrupt spill segment")

// segHeader is the decoded form of the 64-byte segment header.
type segHeader struct {
	index      uint64
	elems      uint64
	payloadCRC uint32
}

// encodeSegHeader renders h into dst (len ≥ segHeaderLen), computing
// the header checksum. Padding bytes are zeroed.
func encodeSegHeader(dst []byte, h segHeader) {
	for i := range dst[:segHeaderLen] {
		dst[i] = 0
	}
	binary.LittleEndian.PutUint32(dst[0:4], segMagic)
	binary.LittleEndian.PutUint16(dst[4:6], segVersion)
	binary.LittleEndian.PutUint64(dst[8:16], h.index)
	binary.LittleEndian.PutUint64(dst[16:24], h.elems)
	binary.LittleEndian.PutUint32(dst[24:28], h.payloadCRC)
	binary.LittleEndian.PutUint32(dst[28:32], crc32.Checksum(dst[0:28], castagnoli))
}

// decodeSegHeader validates and decodes a segment header. The returned
// error (if any) names the failed check; it does not wrap
// ErrCorruptSegment itself — spill.read adds the segment's identity
// and the sentinel.
func decodeSegHeader(b []byte) (segHeader, error) {
	var h segHeader
	if len(b) < segHeaderLen {
		return h, fmt.Errorf("header truncated: %d of %d bytes", len(b), segHeaderLen)
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != segMagic {
		return h, fmt.Errorf("bad magic %#08x", m)
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != segVersion {
		return h, fmt.Errorf("unsupported segment version %d (want %d)", v, segVersion)
	}
	if r := binary.LittleEndian.Uint16(b[6:8]); r != 0 {
		return h, fmt.Errorf("nonzero reserved field %#04x", r)
	}
	if want, got := binary.LittleEndian.Uint32(b[28:32]), crc32.Checksum(b[0:28], castagnoli); want != got {
		return h, fmt.Errorf("header checksum mismatch: stored %#08x computed %#08x", want, got)
	}
	h.index = binary.LittleEndian.Uint64(b[8:16])
	h.elems = binary.LittleEndian.Uint64(b[16:24])
	h.payloadCRC = binary.LittleEndian.Uint32(b[24:28])
	return h, nil
}

// spill is one spill file: nsegs segments of segElems complex values
// each. write and read are safe for concurrent use on
// distinct (or even the same) segments — each issues one positioned
// I/O and they share no mutable state.
type spill struct {
	f        *os.File
	path     string
	segElems int
	nsegs    int
}

// segSize returns the on-disk footprint of one segment.
func (sp *spill) segSize() int64 { return segHeaderLen + int64(sp.segElems)*16 }

// segOff returns the byte offset of segment idx.
func (sp *spill) segOff(idx int) int64 { return int64(idx) * sp.segSize() }

// newSpill creates a spill file for nsegs segments of segElems values
// under dir (os.TempDir() when empty), preallocating the full size so
// later positioned writes cannot fail on a full disk mid-phase.
func newSpill(dir string, segElems, nsegs int) (*spill, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "ooc-spill-*.seg")
	if err != nil {
		return nil, fmt.Errorf("ooc: creating spill file: %w", err)
	}
	sp := &spill{f: f, path: f.Name(), segElems: segElems, nsegs: nsegs}
	if err := f.Truncate(int64(nsegs) * sp.segSize()); err != nil {
		sp.Close()
		return nil, fmt.Errorf("ooc: preallocating spill file %s: %w", sp.path, err)
	}
	return sp, nil
}

// openSpill opens an existing spill file read-only with the given
// geometry — the recovery/inspection path (and the corruption tests').
func openSpill(path string, segElems, nsegs int) (*spill, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &spill{f: f, path: path, segElems: segElems, nsegs: nsegs}, nil
}

// Close closes and removes the spill file. Safe to call twice.
func (sp *spill) Close() error {
	if sp.f == nil {
		return nil
	}
	err := sp.f.Close()
	sp.f = nil
	if rmErr := os.Remove(sp.path); err == nil && !os.IsNotExist(rmErr) {
		err = rmErr
	}
	return err
}

// segHeaderElems is the header's length in payload elements.
const segHeaderElems = segHeaderLen / 16

// segBuf stages one segment the way the file holds it — the header in
// the bytes of its first segHeaderElems elements, the payload after —
// so a segment crosses the file boundary in one positioned call, and
// the payload is addressable as samples without a second buffer.
type segBuf []complex128

// payload is the segment's samples.
func (b segBuf) payload() []complex128 { return b[segHeaderElems:] }

// write checksums b's payload and writes header and payload as
// segment idx. len(b.payload()) must be segElems. It returns the bytes
// written, for I/O accounting.
func (sp *spill) write(idx int, b segBuf) (int64, error) {
	if idx < 0 || idx >= sp.nsegs {
		return 0, fmt.Errorf("ooc: segment index %d out of range [0,%d)", idx, sp.nsegs)
	}
	if len(b) != segHeaderElems+sp.segElems {
		return 0, fmt.Errorf("ooc: segment payload %d elems, want %d", len(b)-segHeaderElems, sp.segElems)
	}
	raw := fft.ComplexBytes(b)
	encodeSegHeader(raw, segHeader{
		index:      uint64(idx),
		elems:      uint64(sp.segElems),
		payloadCRC: crc32.Checksum(raw[segHeaderLen:], castagnoli),
	})
	if _, err := sp.f.WriteAt(raw, sp.segOff(idx)); err != nil {
		return 0, fmt.Errorf("ooc: writing segment %d: %w", idx, err)
	}
	return int64(len(raw)), nil
}

// corrupt wraps a verification failure with the sentinel and the
// segment's identity.
func (sp *spill) corrupt(idx int, err error) error {
	return fmt.Errorf("%w: %s segment %d: %v", ErrCorruptSegment, filepath.Base(sp.path), idx, err)
}

// read reads segment idx into b (payload length segElems) and
// verifies it: the header first, then the payload against the header's
// checksum. Any integrity failure — truncation, bit flips in header or
// payload, a wrong format version, or a header naming a different
// segment — returns an error wrapping ErrCorruptSegment; b's contents
// are unspecified on error and must not be used. It returns the bytes
// read, for I/O accounting.
func (sp *spill) read(idx int, b segBuf) (int64, error) {
	if idx < 0 || idx >= sp.nsegs {
		return 0, fmt.Errorf("ooc: segment index %d out of range [0,%d)", idx, sp.nsegs)
	}
	if len(b) != segHeaderElems+sp.segElems {
		return 0, fmt.Errorf("ooc: segment read buffer %d elems, want %d", len(b)-segHeaderElems, sp.segElems)
	}
	raw := fft.ComplexBytes(b)
	n, rerr := sp.f.ReadAt(raw, sp.segOff(idx))
	if n < segHeaderLen {
		return 0, sp.corrupt(idx, fmt.Errorf("reading header: %w", rerr))
	}
	h, err := decodeSegHeader(raw)
	if err != nil {
		return 0, sp.corrupt(idx, err)
	}
	if h.index != uint64(idx) {
		return 0, sp.corrupt(idx, fmt.Errorf("header names segment %d", h.index))
	}
	if h.elems != uint64(sp.segElems) {
		return 0, sp.corrupt(idx, fmt.Errorf("header claims %d elems, want %d", h.elems, sp.segElems))
	}
	if n < len(raw) {
		return 0, sp.corrupt(idx, fmt.Errorf("reading payload: %w", rerr))
	}
	if got := crc32.Checksum(raw[segHeaderLen:], castagnoli); got != h.payloadCRC {
		return 0, sp.corrupt(idx, fmt.Errorf("payload checksum mismatch: stored %#08x computed %#08x", h.payloadCRC, got))
	}
	return int64(len(raw)), nil
}
