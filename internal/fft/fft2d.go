package fft

import (
	"fmt"
	"sync"
)

// RowCol returns the row-column schedule of a rows×cols 2-D transform
// of row-major data, rows = col.N and cols = row.N: the method the C64
// line of work (Chen et al.) used for 2-D FFT, with any 1-D schedule on
// either axis. The rows pass runs row in place on each row. The cols
// pass is the four-step's column move: a unit is a strip of up to
// MoveRuns columns, moved by TransposeBlock into a pooled buffer as
// contiguous vectors, each run through col there, and moved back — so
// the array is only ever read and written in runs of whole cache lines,
// not an element per row. A unit runs its 1-D schedule serially on a State of
// its own. The transform's direction is its axes': RowCol of two
// forward schedules is the forward 2-D transform, and of the axes'
// inverse schedules, each carrying its own conj and 1/N, the inverse:
// 1/cols on the rows and 1/rows on the columns are 1/(rows·cols) in all.
func RowCol(row, col *Schedule) *Schedule {
	nr, nc := col.N, row.N
	// A strip is MoveRuns columns, narrower where that would leave the
	// cols pass fewer than eight units to share among workers — down to
	// eight columns, two cache lines of each row.
	sw := min(MoveRuns, max(8, nc/8))
	bufs := &sync.Pool{New: func() any {
		b := make([]complex128, nr*min(sw, nc))
		return &b
	}}
	return &Schedule{N: nr * nc, Stage: row.Stage, Passes: []Pass{
		{PassRows, nr, func(st *State, lo, hi int) {
			each(row, st.Data[lo*nc:hi*nc])
		}},
		{PassCols, (nc + sw - 1) / sw, func(st *State, lo, hi int) {
			buf := bufs.Get().(*[]complex128)
			for c0, end := lo*sw, min(hi*sw, nc); c0 < end; c0 += sw {
				w := min(sw, nc-c0)
				columnStrip(*buf, st.Data[c0:], nc, w, false, col)
				TransposeBlock(st.Data[c0:], nc, *buf, nr, w, nr)
			}
			bufs.Put(buf)
		}},
	}}
}

// columnStrip is the column half of a row-column transform on a strip
// of w columns of src, a col.N-row matrix with rows ld apart: it moves
// them into strip as contiguous vectors, conjugated if conj is set, and
// runs col on each there. RowCol moves the strip back; the four-step
// scales it back into rows (FourStepPlan.TransposeScaled).
func columnStrip(strip, src []complex128, ld, w int, conj bool, col *Schedule) {
	TransposeConj(strip, col.N, src, ld, col.N, w, conj, 1)
	each(col, strip[:w*col.N])
}

// Plan2D is the radix-2 2-D FFT the simulator's 2-D runs are checked
// against: RowCol over the staged radix-2 schedules of the two axes,
// forward or inverse, whose P-point tasks are clamped to each axis. A
// Plan2D is immutable after NewPlan2D, so one plan may serve concurrent
// runs on distinct arrays.
type Plan2D struct{ fwd, inv *Schedule }

// NewPlan2D validates the shape and builds the two directions. The
// returned errors wrap ErrUnsupportedLength or ErrBadTaskSize.
func NewPlan2D(rows, cols, taskSize int) (*Plan2D, error) {
	if Log2(rows) < 1 || Log2(cols) < 1 {
		return nil, fmt.Errorf("%w: 2-D shape %dx%d must be powers of two ≥ 2", ErrUnsupportedLength, rows, cols)
	}
	rp, err := NewPlan(cols, min(taskSize, cols))
	if err != nil {
		return nil, err
	}
	cp, err := NewPlan(rows, min(taskSize, rows))
	if err != nil {
		return nil, err
	}
	wr, wc := Twiddles(cols), Twiddles(rows)
	return &Plan2D{
		RowCol(rp.Schedule(wr, KernelRadix2, false), cp.Schedule(wc, KernelRadix2, false)),
		RowCol(rp.Schedule(wr, KernelRadix2, true), cp.Schedule(wc, KernelRadix2, true)),
	}, nil
}

// Transform applies the 2-D FFT in place to data in row-major order,
// serially. It returns an error wrapping ErrLengthMismatch if len(data)
// is not rows×cols.
func (p *Plan2D) Transform(data []complex128) error { return p.fwd.Run(data) }

// InverseTransform applies the inverse 2-D FFT in place.
func (p *Plan2D) InverseTransform(data []complex128) error { return p.inv.Run(data) }
