package codeletfft

import (
	"context"
	"strings"

	"codeletfft/internal/ooc"
)

// ErrCorruptSegment reports an out-of-core spill segment that failed
// integrity verification (truncation, bit flips, wrong format version).
// Errors from OOC transforms wrap it; test with errors.Is.
var ErrCorruptSegment = ooc.ErrCorruptSegment

// OOCOption configures NewOOCPlan.
type OOCOption = ooc.Option

// OOCSpillDir places spill files under dir (default the system temp
// directory).
func OOCSpillDir(dir string) OOCOption { return ooc.WithSpillDir(dir) }

// OOCMemoryBudget bounds the plan's resident staging buffers and
// compute-kernel tables to about b bytes (default 256 MiB); the tile
// height is derived from it. A tile's FFTs are split over the
// process's worker pool, and the staging I/O runs on goroutines of its
// own, so a blocked read or write never occupies a pool worker.
func OOCMemoryBudget(b int64) OOCOption { return ooc.WithMemoryBudget(b) }

// OOCPlan computes transforms too large for RAM by staging a four-step
// decomposition through a file-backed spill store under a fixed memory
// budget. At sizes where both fit, its output is bitwise identical to
// the in-core four-step reference (and its sub-FFTs are the same
// staged kernels every other plan runs). An OOCPlan implements Plan,
// so code written against the interface can swap it in unchanged; the
// file endpoints (TransformFile) are the genuinely out-of-core entry
// points — the in-memory methods exist for interface compatibility and
// bitwise cross-checks at co-runnable sizes.
type OOCPlan struct {
	p *ooc.Plan
}

var _ Plan = (*OOCPlan)(nil)

// NewOOCPlan builds an out-of-core plan for n-point transforms (n a
// power of two ≥ 4):
//
//	p, err := codeletfft.NewOOCPlan(1<<28,
//	    codeletfft.OOCSpillDir("/scratch"),
//	    codeletfft.OOCMemoryBudget(512<<20))
//	err = p.TransformFile(ctx, "out.c128", "in.c128")
func NewOOCPlan(n int, opts ...OOCOption) (*OOCPlan, error) {
	p, err := ooc.NewPlan(n, opts...)
	if err != nil {
		return nil, err
	}
	return &OOCPlan{p: p}, nil
}

// N returns the transform length.
func (o *OOCPlan) N() int { return o.p.N() }

// Factors returns the four-step split N = N1·N2.
func (o *OOCPlan) Factors() (n1, n2 int) { return o.p.Factors() }

// TileVecs returns the vectors staged per tile in the column and row
// phases, as the memory budget resolved them.
func (o *OOCPlan) TileVecs() (s2, s1 int) { return o.p.TileVecs() }

// SpillBytes returns the on-disk footprint of one transform's spill
// store, segment headers included.
func (o *OOCPlan) SpillBytes() int64 { return o.p.SpillBytes() }

// String describes the plan geometry.
func (o *OOCPlan) String() string { return o.p.String() }

// Transform applies the forward FFT in place through the full staged
// path (spill store included). len(data) must be N.
func (o *OOCPlan) Transform(data []complex128) error { return o.p.Transform(data) }

// Inverse applies the inverse FFT in place through the staged path.
func (o *OOCPlan) Inverse(data []complex128) error { return o.p.Inverse(data) }

// TransformCtx is Transform with cancellation between staging steps.
func (o *OOCPlan) TransformCtx(ctx context.Context, data []complex128) error {
	return o.p.TransformCtx(ctx, data)
}

// InverseCtx is Inverse with cancellation between staging steps.
func (o *OOCPlan) InverseCtx(ctx context.Context, data []complex128) error {
	return o.p.InverseCtx(ctx, data)
}

// TransformBatch transforms every row sequentially (each row is a full
// staged run).
func (o *OOCPlan) TransformBatch(batch [][]complex128) error { return o.p.TransformBatch(batch) }

// InverseBatch inverse-transforms every row sequentially.
func (o *OOCPlan) InverseBatch(batch [][]complex128) error { return o.p.InverseBatch(batch) }

// TransformFile transforms N points from srcPath into dstPath — flat
// native-order complex128 files — without ever holding more than the
// memory budget in RAM. Passing the same path transforms in place.
func (o *OOCPlan) TransformFile(ctx context.Context, dstPath, srcPath string) error {
	return o.p.TransformFile(ctx, dstPath, srcPath)
}

// InverseFile is TransformFile for the inverse transform.
func (o *OOCPlan) InverseFile(ctx context.Context, dstPath, srcPath string) error {
	return o.p.InverseFile(ctx, dstPath, srcPath)
}

// Snapshot returns the plan's metrics — per-channel prefetch bytes and
// stalls, per-phase byte and time totals, segment and corruption
// counts — as a flat name → value map.
func (o *OOCPlan) Snapshot() map[string]float64 { return o.p.Registry().Snapshot() }

// MetricsText renders the plan's metrics in the same plain-text
// exposition format the daemons serve at /metrics.
func (o *OOCPlan) MetricsText() string {
	var b strings.Builder
	o.p.Registry().WriteText(&b)
	return b.String()
}
