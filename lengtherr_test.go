package codeletfft_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"codeletfft"
)

// lengthCase is one facade call handed one wrong-length buffer. bufs
// holds every buffer the call is given, inputs and outputs alike
// ([]complex128, [][]complex128 or []float64); row is the batch index
// the error must name, or -1.
type lengthCase struct {
	name string
	bufs []any
	row  int
	call func() error
}

// bits flattens every element of bufs to its IEEE bits, so two
// snapshots compare bitwise (NaN-safe).
func bits(bufs []any) []uint64 {
	var out []uint64
	var add func(any)
	add = func(b any) {
		switch b := b.(type) {
		case []complex128:
			for _, v := range b {
				out = append(out, math.Float64bits(real(v)), math.Float64bits(imag(v)))
			}
		case [][]complex128:
			for _, row := range b {
				add(row)
			}
		case []float64:
			for _, v := range b {
				out = append(out, math.Float64bits(v))
			}
		default:
			panic(fmt.Sprintf("bits: unsupported buffer %T", b))
		}
	}
	for _, b := range bufs {
		add(b)
	}
	return out
}

// TestLengthErrorsLeaveBuffersUntouched: every facade method with an
// error result returns each wrong-length buffer as an error wrapping
// ErrLengthMismatch — naming the row for a batch — without panicking
// and without writing to any buffer it was handed.
func TestLengthErrorsLeaveBuffersUntouched(t *testing.T) {
	const n, rows, cols = 64, 8, 16
	ctx := context.Background()
	c := func(m int) []complex128 { return noise(m, int64(m)) }
	var cases []lengthCase
	add := func(name string, row int, call func() error, bufs ...any) {
		cases = append(cases, lengthCase{name: name, bufs: bufs, row: row, call: call})
	}

	for _, opts := range [][]codeletfft.HostOption{
		{codeletfft.WithWorkers(1)},
		{codeletfft.WithWorkers(3), codeletfft.WithThreshold(1)},
	} {
		h, err := codeletfft.NewHostPlan(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		w := fmt.Sprintf("HostPlan/workers=%d", h.Workers())
		for _, f := range []struct {
			name string
			run  func([]complex128) error
		}{
			{"Transform", h.Transform},
			{"Inverse", h.Inverse},
			{"TransformCtx", func(d []complex128) error { return h.TransformCtx(ctx, d) }},
			{"InverseCtx", func(d []complex128) error { return h.InverseCtx(ctx, d) }},
		} {
			short := c(n - 1)
			add(w+"."+f.name, -1, func() error { return f.run(short) }, short)
		}
		for _, f := range []struct {
			name string
			run  func([][]complex128) error
		}{{"TransformBatch", h.TransformBatch}, {"InverseBatch", h.InverseBatch}} {
			batch := [][]complex128{c(n), c(n + 1), c(n)}
			add(w+"."+f.name, 1, func() error { return f.run(batch) }, batch)
		}
	}

	r, err := codeletfft.NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		what string
		spec []complex128
		x    []float64
	}{
		{"spectrum", c(r.SpectrumLen() - 1), testSignal(n)},
		{"signal", c(r.SpectrumLen()), testSignal(n - 2)},
	} {
		spec, x := b.spec, b.x
		add("RealPlan.Transform/"+b.what, -1, func() error { return r.Transform(spec, x) }, spec, x)
		add("RealPlan.Inverse/"+b.what, -1, func() error { return r.Inverse(x, spec) }, spec, x)
		add("RealPlan.TransformCtx/"+b.what, -1, func() error { return r.TransformCtx(ctx, spec, x) }, spec, x)
		add("RealPlan.InverseCtx/"+b.what, -1, func() error { return r.InverseCtx(ctx, x, spec) }, spec, x)
	}

	h2, err := codeletfft.NewHostPlan2D(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	grid := c(rows*cols - 1)
	add("HostPlan2D.Transform", -1, func() error { return h2.Transform(grid) }, grid)
	add("HostPlan2D.Inverse", -1, func() error { return h2.Inverse(grid) }, grid)

	conv, err := codeletfft.NewConvPlan(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		what        string
		dst, x, ker []complex128
	}{
		{"output", c(conv.OutLen() - 1), c(100), c(5)},
		{"signal", c(conv.OutLen()), c(99), c(5)},
		{"kernel", c(conv.OutLen()), c(100), c(4)},
	} {
		dst, x, ker := b.dst, b.x, b.ker
		add("ConvPlan.Convolve/"+b.what, -1, func() error { return conv.Convolve(dst, x, ker) }, dst, x, ker)
		add("ConvPlan.CrossCorrelate/"+b.what, -1, func() error { return conv.CrossCorrelate(dst, x, ker) }, dst, x, ker)
	}
	shortKer := c(4)
	add("ConvPlan.FilterStream", -1, func() error { _, err := conv.FilterStream(shortKer); return err }, shortKer)
	sf, err := conv.FilterStream(c(5))
	if err != nil {
		t.Fatal(err)
	}
	sfDst, sfSrc := c(31), c(32)
	add("StreamFilter.Process", -1, func() error { return sf.Process(sfDst, sfSrc) }, sfDst, sfSrc)

	const frame, hop = 16, 8
	win := make([]float64, frame-1)
	add("NewSTFTPlan/window", -1, func() error { _, err := codeletfft.NewSTFTPlan(frame, hop, win); return err }, win)
	stft, err := codeletfft.NewSTFTPlan(frame, hop, codeletfft.HannWindow(frame))
	if err != nil {
		t.Fatal(err)
	}
	sig := testSignal(frame + 2*hop) // three frames
	fewFrames := [][]complex128{c(frame), c(frame)}
	add("STFTPlan.Transform/frames", -1, func() error { return stft.Transform(fewFrames, sig) }, fewFrames, sig)
	// Frames 0 and 1 are good: they must not be loaded before row 2
	// is found wrong.
	badFrame := [][]complex128{c(frame), c(frame), c(frame - 1)}
	add("STFTPlan.Transform/row", 2, func() error { return stft.Transform(badFrame, sig) }, badFrame, sig)
	stream := stft.Stream()
	stream.Write(testSignal(frame + hop))
	nextDst := c(frame + 1)
	add("STFTStream.Next", -1, func() error {
		pending := stream.Pending()
		ok, err := stream.Next(nextDst)
		if ok || stream.Pending() != pending {
			return fmt.Errorf("stream advanced (ok=%v, pending %d → %d); err %v", ok, pending, stream.Pending(), err)
		}
		return err
	}, nextDst)

	ooc, err := codeletfft.NewOOCPlan(1<<10, codeletfft.OOCSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	oocData := c(1<<10 - 1)
	add("OOCPlan.Transform", -1, func() error { return ooc.Transform(oocData) }, oocData)
	add("OOCPlan.Inverse", -1, func() error { return ooc.Inverse(oocData) }, oocData)

	for _, tc := range cases {
		before := bits(tc.bufs)
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panicked: %v", r)
				}
			}()
			return tc.call()
		}()
		if !errors.Is(err, codeletfft.ErrLengthMismatch) {
			t.Errorf("%s: err = %v, want an error wrapping ErrLengthMismatch", tc.name, err)
			continue
		}
		if want := fmt.Sprintf("batch element %d ", tc.row); tc.row >= 0 && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name row %d", tc.name, err, tc.row)
		}
		after := bits(tc.bufs)
		for i := range before {
			if before[i] != after[i] {
				t.Errorf("%s: a buffer changed (word %d) before the length error", tc.name, i)
				break
			}
		}
	}
}

// TestHostPlan2DRejectsBadShape: a 2-D shape with an axis below 1, or
// whose point count overflows an int, is an error wrapping
// ErrUnsupportedLength, returned before either axis is planned.
func TestHostPlan2DRejectsBadShape(t *testing.T) {
	for _, sh := range [][2]int{
		{0, 8}, {8, 0}, {-1, 4}, {4, -64}, {0, 0},
		{math.MaxInt/2 + 1, 2}, {3, math.MaxInt/3 + 1}, {math.MaxInt, math.MaxInt},
	} {
		if _, err := codeletfft.NewHostPlan2D(sh[0], sh[1]); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
			t.Errorf("NewHostPlan2D(%d, %d) err = %v, want ErrUnsupportedLength", sh[0], sh[1], err)
		}
	}
}
