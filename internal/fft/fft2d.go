package fft

import (
	"fmt"
	"sync"
)

// RowCol returns the row-column schedule of a rows×cols 2-D transform
// of row-major data, rows = col.N and cols = row.N: the method the C64
// line of work (Chen et al.) used for 2-D FFT, with any 1-D schedule on
// either axis. The rows pass runs row in place on each row; the cols
// pass gathers each column into a pooled buffer, runs col on it and
// scatters it back. A unit runs its 1-D schedule serially on a State of
// its own. The transform's direction is its axes': RowCol of two
// forward schedules is the forward 2-D transform, and of the axes'
// inverse schedules, each carrying its own conj and 1/N, the inverse:
// 1/cols on the rows and 1/rows on the columns are 1/(rows·cols) in all.
func RowCol(row, col *Schedule) *Schedule {
	nr, nc := col.N, row.N
	bufs := &sync.Pool{New: func() any {
		b := make([]complex128, nr)
		return &b
	}}
	return &Schedule{N: nr * nc, Stage: row.Stage, Passes: []Pass{
		{PassRows, nr, func(st *State, lo, hi int) {
			rs := row.Acquire(nil)
			for r := lo; r < hi; r++ {
				rs.Data = st.Data[r*nc : (r+1)*nc]
				row.Exec(rs)
			}
			rs.Release()
		}},
		{PassCols, nc, func(st *State, lo, hi int) {
			buf := bufs.Get().(*[]complex128)
			cs := col.Acquire(*buf)
			for c := lo; c < hi; c++ {
				for r := range cs.Data {
					cs.Data[r] = st.Data[r*nc+c]
				}
				col.Exec(cs)
				for r, v := range cs.Data {
					st.Data[r*nc+c] = v
				}
			}
			cs.Release()
			bufs.Put(buf)
		}},
	}}
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
