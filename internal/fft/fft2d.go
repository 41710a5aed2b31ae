package fft

import "fmt"

// Plan2D decomposes a rows×cols 2-D FFT into row transforms followed by
// column transforms, each using the staged P-point-task plan. This is the
// row-column method the C64 line of work (Chen et al.) used for 2-D FFT;
// the paper's scheduling applies to each 1-D pass.
// A Plan2D is immutable after NewPlan2D: the twiddle tables WRow and WCol
// are computed once and never written again, so one plan may serve any
// number of concurrent runs on distinct data arrays (the pooled
// per-unit States are the only mutable state).
type Plan2D struct {
	Rows, Cols int
	RowPlan    *Plan
	ColPlan    *Plan
	// WRow and WCol are the per-dimension twiddle tables, Twiddles(Cols)
	// and Twiddles(Rows). Shared read-only state — callers must not
	// mutate them.
	WRow []complex128
	WCol []complex128

	sched schedCache // Schedule's memo
}

// NewPlan2D validates the shape and builds per-dimension plans. Task size
// is clamped to each dimension. The returned errors wrap
// ErrUnsupportedLength or ErrBadTaskSize.
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
	return &Plan2D{
		Rows: rows, Cols: cols, RowPlan: rp, ColPlan: cp,
		WRow: Twiddles(cols), WCol: Twiddles(rows),
	}, nil
}

// Schedule returns the plan's pass list under kern for the forward or
// inverse transform, building it on first use: one pass whose units are
// whole row transforms, one whose units are whole column transforms
// (gathered into and scattered from a pooled staging buffer), and the
// conjugation identity's two sweeps around them for the inverse. A unit
// runs its 1-D forward schedule serially on its own pooled State.
func (p *Plan2D) Schedule(kern Kernel, inverse bool) *Schedule {
	return p.sched.get(kern, inverse, p.schedule)
}

func (p *Plan2D) schedule(kern Kernel, inverse bool) *Schedule {
	rows := p.RowPlan.Schedule(p.WRow, kern, false)
	cols := &Schedule{N: p.Rows, Passes: p.ColPlan.passes(p.WCol, kern, false, onWork),
		frame: p.ColPlan.frameLen(kern), work: p.Rows}
	nr, nc := p.Rows, p.Cols
	ps := []Pass{
		{PassRows, nr, func(st *State, lo, hi int) {
			rs := rows.Acquire(nil)
			for r := lo; r < hi; r++ {
				rs.Data = st.Data[r*nc : (r+1)*nc]
				rows.Exec(rs)
			}
			rs.Release()
		}},
		{PassCols, nc, func(st *State, lo, hi int) {
			cs := cols.Acquire(nil)
			for c := lo; c < hi; c++ {
				for r := range cs.Work {
					cs.Work[r] = st.Data[r*nc+c]
				}
				cols.Exec(cs)
				for r, v := range cs.Work {
					st.Data[r*nc+c] = v
				}
			}
			cs.Release()
		}},
	}
	if inverse {
		ps = inverted(ps, onData, nr*nc)
	}
	return &Schedule{N: nr * nc, Stage: StageLabel(kern), Passes: ps}
}

// Transform applies the radix-2 2-D FFT in place to data in row-major
// order, serially. It returns an error wrapping ErrLengthMismatch if
// len(data) is not Rows×Cols.
func (p *Plan2D) Transform(data []complex128) error { return p.Schedule(KernelRadix2, false).Run(data) }

// InverseTransform applies the inverse 2-D FFT in place.
func (p *Plan2D) InverseTransform(data []complex128) error {
	return p.Schedule(KernelRadix2, true).Run(data)
}
