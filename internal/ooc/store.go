package ooc

import (
	"fmt"
	"os"

	"codeletfft/internal/fft"
)

// Store is a flat array of complex128 values addressed by element
// offset — the input and output endpoints of an out-of-core transform.
// Implementations must support concurrent calls on disjoint ranges;
// the staging phases issue positioned reads and writes from several
// I/O goroutines at once.
type Store interface {
	// ReadVec fills dst from the off-th element onward.
	ReadVec(dst []complex128, off int64) error
	// WriteVec stores src at the off-th element onward.
	WriteVec(src []complex128, off int64) error
}

// fileStore is a Store over an *os.File of raw native-order complex128
// values (no header — the deliverable format fftooc reads and
// writes). Positioned I/O only, so it is concurrency-safe.
type fileStore struct {
	f *os.File
}

func (s fileStore) ReadVec(dst []complex128, off int64) error {
	b := fft.ComplexBytes(dst)
	if n, err := s.f.ReadAt(b, off*16); n < len(b) {
		return fmt.Errorf("ooc: reading %d elems at %d from %s: %w", len(dst), off, s.f.Name(), err)
	}
	return nil
}

func (s fileStore) WriteVec(src []complex128, off int64) error {
	if _, err := s.f.WriteAt(fft.ComplexBytes(src), off*16); err != nil {
		return fmt.Errorf("ooc: writing %d elems at %d to %s: %w", len(src), off, s.f.Name(), err)
	}
	return nil
}

// memStore is a Store over an in-RAM slice — the path Transform and
// Inverse take at co-runnable sizes, so the staged execution can be
// compared bit for bit against the in-core four-step.
type memStore struct {
	data []complex128
}

func (s memStore) ReadVec(dst []complex128, off int64) error {
	if off < 0 || off+int64(len(dst)) > int64(len(s.data)) {
		return fmt.Errorf("ooc: mem read [%d,%d) outside [0,%d)", off, off+int64(len(dst)), len(s.data))
	}
	copy(dst, s.data[off:])
	return nil
}

func (s memStore) WriteVec(src []complex128, off int64) error {
	if off < 0 || off+int64(len(src)) > int64(len(s.data)) {
		return fmt.Errorf("ooc: mem write [%d,%d) outside [0,%d)", off, off+int64(len(src)), len(s.data))
	}
	copy(s.data[off:], src)
	return nil
}
