package core

import (
	"fmt"
	"math/rand"

	"codeletfft/internal/c64"
	"codeletfft/internal/codelet"
	"codeletfft/internal/fft"
	"codeletfft/internal/sim"
)

// Options2D configures a simulated 2-D FFT (row-column method) on the
// machine model: a fine-grain row pass over all rows, a barrier, then a
// fine-grain column pass. The column pass accesses the array with a
// stride of Cols elements, which on the interleaved DRAM puts an entire
// column on one bank — a stress case for the bank-balance machinery
// beyond the paper's 1-D evaluation.
type Options2D struct {
	Rows, Cols   int
	TaskSize     int
	Threads      int
	Machine      c64.Config
	SkipNumerics bool
	Check        bool
	Seed         int64
}

// Result2D reports a simulated 2-D FFT.
type Result2D struct {
	Opts       Options2D
	Cycles     sim.Time
	Seconds    float64
	GFLOPS     float64
	TotalFlops int64
	RowCycles  sim.Time // completion time of the row pass
	BankBytes  []int64
	MaxError   float64
	Checked    bool
}

// batched wraps the 1-D executor to run B independent transforms of one
// plan, batch b mapping local element g to global index off(b) + g·stride.
type batched struct {
	e      *executor
	pl     *fft.Plan
	perRow int // tasks per stage of one transform
	offset func(batch int) int64
	stride int64
}

// Execute decodes (batch, local task) from the flat codelet index.
func (b *batched) Execute(tu int, ref codelet.Ref, start sim.Time, finish func(sim.Time)) {
	batch := int(ref.Index) / b.perRow
	local := int(ref.Index) % b.perRow
	b.e.setBatch(tu, b.offset(batch), b.stride)
	b.e.Execute(tu, codelet.Ref{Stage: ref.Stage, Index: int32(local)}, start, finish)
}

// batchFiring replicates the 1-D firing state across B independent
// transforms.
type batchFiring struct {
	f      *firing
	perRow int
}

func (bf *batchFiring) OnComplete(ref codelet.Ref, emit func(codelet.Ref)) int {
	batch := int(ref.Index) / bf.perRow
	local := codelet.Ref{Stage: ref.Stage, Index: ref.Index % int32(bf.perRow)}
	return bf.f.onCompleteBatch(batch, local, func(child codelet.Ref) {
		emit(codelet.Ref{Stage: child.Stage, Index: child.Index + int32(batch*bf.perRow)})
	})
}

// Run2D simulates the row-column 2-D FFT.
func Run2D(opts Options2D) (*Result2D, error) {
	if opts.TaskSize == 0 {
		opts.TaskSize = 64
	}
	if opts.Machine.ThreadUnits == 0 {
		opts.Machine = c64.Default()
	}
	if opts.Threads == 0 {
		opts.Threads = opts.Machine.ThreadUnits
	}
	if err := opts.Machine.Validate(); err != nil {
		return nil, err
	}
	if opts.SkipNumerics && opts.Check {
		return nil, fmt.Errorf("core: Check requires numerics")
	}
	rows, cols := opts.Rows, opts.Cols
	if fft.Log2(rows) < 1 || fft.Log2(cols) < 1 {
		return nil, fmt.Errorf("core: 2-D shape %dx%d must be powers of two ≥ 2", rows, cols)
	}
	rowPlan, err := fft.NewPlan(cols, minInt(opts.TaskSize, cols))
	if err != nil {
		return nil, err
	}
	colPlan, err := fft.NewPlan(rows, minInt(opts.TaskSize, rows))
	if err != nil {
		return nil, err
	}

	n := rows * cols
	m := c64.NewMachine(opts.Machine)
	var data, input []complex128
	if !opts.SkipNumerics {
		rng := rand.New(rand.NewSource(opts.Seed))
		data = make([]complex128, n)
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		input = append([]complex128(nil), data...)
	}

	rtCfg := codelet.Config{
		Threads:       opts.Threads,
		PoolAccess:    opts.Machine.PoolAccess,
		CounterUpdate: opts.Machine.CounterUpdate,
	}

	runPass := func(pl *fft.Plan, batches int, offset func(int) int64, stride int64, table []complex128, doBitrev bool) {
		base := &Options{
			N: pl.N, TaskSize: pl.P, Threads: opts.Threads, Machine: opts.Machine,
			SkipNumerics: opts.SkipNumerics, SharedCounters: true, Seed: opts.Seed,
		}
		ex := newExecutor(base, m, pl, data, table)
		ex.layout = c64.NewLayout(opts.Machine, n, pl.N/2)
		ex.hashWidth = fft.Log2(pl.N / 2)

		perRow := pl.TasksPerStage
		bex := &batched{e: ex, pl: pl, perRow: perRow, offset: offset, stride: stride}

		// Numeric bit-reversal per batch (the traffic of the permutation
		// pass is charged through the batched bit-reversal executor).
		if doBitrev && !opts.SkipNumerics {
			buf := make([]complex128, pl.N)
			for b := 0; b < batches; b++ {
				off := offset(b)
				for g := int64(0); g < int64(pl.N); g++ {
					buf[g] = data[off+g*stride]
				}
				fft.BitReversePermute(buf)
				for g := int64(0); g < int64(pl.N); g++ {
					data[off+g*stride] = buf[g]
				}
			}
		}
		if doBitrev {
			brExec := &batchedBitrev{b: bex, width: pl.LogN}
			brRT := codelet.NewRuntime(m.Eng, rtCfg, codelet.FIFO, brExec.Execute, nil)
			brRT.RunPhaseStatic(flatSeed(0, batches*perRow))
			brRT.Barrier(opts.Machine.BarrierLatency)
		}

		transitions := make([]*fft.Transition, pl.NumStages)
		for s := 0; s < pl.NumStages-1; s++ {
			transitions[s] = pl.BuildTransition(s)
		}
		f := newBatchedFiring(pl, transitions, batches, pl.NumStages-1)
		bf := &batchFiring{f: f, perRow: perRow}
		rt := codelet.NewRuntime(m.Eng, rtCfg, codelet.LIFO, bex.Execute, bf.OnComplete)
		rt.RunPhase(flatSeed(0, batches*perRow))
		rt.Barrier(opts.Machine.BarrierLatency)
	}

	// Row pass: contiguous rows.
	var wRow, wCol []complex128
	if !opts.SkipNumerics {
		wRow = fft.Twiddles(cols)
		wCol = fft.Twiddles(rows)
	}
	runPass(rowPlan, rows, func(b int) int64 { return int64(b) * int64(cols) }, 1, wRow, true)
	rowDone := m.Eng.Now()
	// Column pass: stride-Cols access.
	runPass(colPlan, cols, func(b int) int64 { return int64(b) }, int64(cols), wCol, true)

	res := &Result2D{
		Opts:       opts,
		Cycles:     m.Eng.Now(),
		RowCycles:  rowDone,
		TotalFlops: 5 * int64(n) * int64(fft.Log2(n)),
		BankBytes:  m.BankBytes(),
	}
	res.Seconds = opts.Machine.Seconds(res.Cycles)
	res.GFLOPS = float64(res.TotalFlops) / res.Seconds / 1e9
	if opts.Check {
		p2, err := fft.NewPlan2D(rows, cols, opts.TaskSize)
		if err != nil {
			return nil, err
		}
		want := append([]complex128(nil), input...)
		if err := p2.Transform(want); err != nil {
			return nil, err
		}
		res.MaxError = fft.MaxError(data, want)
		res.Checked = true
		if res.MaxError > 1e-6 {
			return res, fmt.Errorf("core: 2-D output wrong (max error %g)", res.MaxError)
		}
	}
	return res, nil
}

// batchedBitrev charges the per-batch bit-reversal traffic.
type batchedBitrev struct {
	b     *batched
	width int
}

func (bb *batchedBitrev) Execute(tu int, ref codelet.Ref, start sim.Time, finish func(sim.Time)) {
	batch := int(ref.Index) / bb.b.perRow
	local := int(ref.Index) % bb.b.perRow
	bb.b.e.setBatch(tu, bb.b.offset(batch), bb.b.stride)
	br := &bitrevExecutor{e: bb.b.e, width: bb.width}
	br.Execute(tu, codelet.Ref{Stage: ref.Stage, Index: int32(local)}, start, finish)
}

func flatSeed(stage int32, n int) []codelet.Ref {
	refs := make([]codelet.Ref, n)
	for i := range refs {
		refs[i] = codelet.Ref{Stage: stage, Index: int32(i)}
	}
	return refs
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
