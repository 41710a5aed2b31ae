package ooc

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// writeSegment and readSegment let the tests below speak in bare
// payload slices: they stage the payload through a segBuf, the form the
// spill itself moves — header and payload contiguous, one positioned
// I/O each way.
func (sp *spill) writeSegment(idx int, data []complex128) (int64, error) {
	b := make(segBuf, segHeaderElems+len(data))
	copy(b.payload(), data)
	return sp.write(idx, b)
}

func (sp *spill) readSegment(idx int, dst []complex128) (int64, error) {
	b := make(segBuf, segHeaderElems+len(dst))
	nb, err := sp.read(idx, b)
	copy(dst, b.payload())
	return nb, err
}

// writeTestSpill creates a spill with deterministic payloads and
// returns it plus the expected segment contents.
func writeTestSpill(t *testing.T, segElems, nsegs int) (*spill, [][]complex128) {
	t.Helper()
	sp, err := newSpill(t.TempDir(), segElems, nsegs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	want := make([][]complex128, nsegs)
	for i := range want {
		want[i] = make([]complex128, segElems)
		for k := range want[i] {
			want[i][k] = complex(float64(i), float64(k))
		}
		if _, err := sp.writeSegment(i, want[i]); err != nil {
			t.Fatalf("writeSegment(%d): %v", i, err)
		}
	}
	return sp, want
}

// TestSpillRoundTrip pins the happy path: every segment reads back
// exactly, and the reported byte counts match the on-disk footprint.
func TestSpillRoundTrip(t *testing.T) {
	const segElems, nsegs = 32, 5
	sp, want := writeTestSpill(t, segElems, nsegs)
	buf := make([]complex128, segElems)
	for i := 0; i < nsegs; i++ {
		nb, err := sp.readSegment(i, buf)
		if err != nil {
			t.Fatalf("readSegment(%d): %v", i, err)
		}
		if nb != sp.segSize() {
			t.Fatalf("segment %d: %d bytes read, want %d", i, nb, sp.segSize())
		}
		for k := range buf {
			if buf[k] != want[i][k] {
				t.Fatalf("segment %d elem %d: %v != %v", i, k, buf[k], want[i][k])
			}
		}
	}
	if _, err := sp.writeSegment(nsegs, want[0]); err == nil {
		t.Fatal("writeSegment accepted an out-of-range index")
	}
	if _, err := sp.readSegment(-1, buf); err == nil {
		t.Fatal("readSegment accepted a negative index")
	}
	if _, err := sp.writeSegment(0, want[0][:1]); err == nil {
		t.Fatal("writeSegment accepted a short payload")
	}
}

// corruptAt flips one bit of the spill file at the given offset.
func corruptAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentCorruptionDetected is the integrity satellite: truncated
// files, bit flips anywhere (magic, version, index, length, checksums,
// payload), and wrong-version headers must all surface as
// ErrCorruptSegment — never as garbage data handed to the FFT.
func TestSegmentCorruptionDetected(t *testing.T) {
	const segElems, nsegs = 16, 3
	segBytes := int64(segHeaderLen + segElems*16)

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		seg     int
	}{
		{"truncated-mid-payload", func(t *testing.T, path string) {
			if err := os.Truncate(path, segBytes*3-40); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"truncated-mid-header", func(t *testing.T, path string) {
			if err := os.Truncate(path, segBytes*2+10); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"magic-flip", func(t *testing.T, path string) { corruptAt(t, path, 0) }, 0},
		{"version-flip", func(t *testing.T, path string) { corruptAt(t, path, segBytes+4) }, 1},
		{"reserved-flip", func(t *testing.T, path string) { corruptAt(t, path, segBytes+6) }, 1},
		{"index-flip", func(t *testing.T, path string) { corruptAt(t, path, segBytes+8) }, 1},
		{"elems-flip", func(t *testing.T, path string) { corruptAt(t, path, 16) }, 0},
		{"payload-crc-flip", func(t *testing.T, path string) { corruptAt(t, path, 24) }, 0},
		{"header-crc-flip", func(t *testing.T, path string) { corruptAt(t, path, 28) }, 0},
		{"payload-flip", func(t *testing.T, path string) {
			corruptAt(t, path, segBytes*2+segHeaderLen+77)
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, _ := writeTestSpill(t, segElems, nsegs)
			// Work on a copy so each case corrupts fresh bytes.
			raw, err := os.ReadFile(sp.path)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "copy.seg")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, path)
			cp, err := openSpill(path, segElems, nsegs)
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Close()
			buf := make([]complex128, segElems)
			_, err = cp.readSegment(tc.seg, buf)
			if err == nil {
				t.Fatal("corrupt segment read back without error")
			}
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("err = %v, does not wrap ErrCorruptSegment", err)
			}
		})
	}
}

// TestSegmentPaddingUncovered pins the actual coverage boundary: bytes
// [32:64) are declared padding and are not integrity-checked, so a
// flip there must NOT fail the read (the format's documented claim is
// header fields + payload, not the pad).
func TestSegmentPaddingUncovered(t *testing.T) {
	const segElems, nsegs = 8, 1
	sp, want := writeTestSpill(t, segElems, nsegs)
	raw, err := os.ReadFile(sp.path)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pad.seg")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptAt(t, path, 40)
	cp, err := openSpill(path, segElems, nsegs)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	buf := make([]complex128, segElems)
	if _, err := cp.readSegment(0, buf); err != nil {
		t.Fatalf("padding flip failed the read: %v", err)
	}
	for k := range buf {
		if buf[k] != want[0][k] {
			t.Fatalf("elem %d corrupted by padding flip", k)
		}
	}
}

// TestSpillCloseRemoves pins that Close deletes the spill file and is
// idempotent.
func TestSpillCloseRemoves(t *testing.T) {
	sp, _ := writeTestSpill(t, 4, 2)
	path := sp.path
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file still present after Close: %v", err)
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// FuzzSegmentHeader feeds arbitrary bytes to the header decoder: it
// must never panic, and every accepted header must survive an
// encode/decode round trip bit for bit.
func FuzzSegmentHeader(f *testing.F) {
	// Seed with a valid header and near-valid mutants.
	valid := make([]byte, segHeaderLen)
	encodeSegHeader(valid, segHeader{index: 3, elems: 1024, payloadCRC: 0xDEADBEEF})
	f.Add(append([]byte(nil), valid...))
	mut := append([]byte(nil), valid...)
	mut[5] ^= 0xFF // version
	f.Add(mut)
	f.Add(valid[:31])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := decodeSegHeader(b)
		if err != nil {
			return
		}
		// Accepted headers must checksum-verify and re-encode to the
		// same canonical 64 bytes (with padding zeroed).
		var re [segHeaderLen]byte
		encodeSegHeader(re[:], h)
		if got, want := binary.LittleEndian.Uint32(re[28:32]), crc32.Checksum(re[0:28], castagnoli); got != want {
			t.Fatalf("re-encoded header checksum %#08x, want %#08x", got, want)
		}
		h2, err := decodeSegHeader(re[:])
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v", err)
		}
		if h2 != h {
			t.Fatalf("header round trip changed: %+v != %+v", h2, h)
		}
	})
}
