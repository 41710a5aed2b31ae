// Package ooc executes Fourier transforms on datasets larger than RAM:
// the Bailey four-step of internal/fft.FourStepPlan whose intermediate
// N2×N1 matrix lives in a checksummed, file-backed spill store instead
// of memory, streamed through a bounded pool of in-RAM tiles with
// double-buffered asynchronous prefetch.
//
// The transform runs as two staged phases over the spill, each strip of
// tile vectors flowing fill → compute → drain:
//
//	cols: column gather from the input Store (fft.TransposeConj, the
//	      inverse's conj) → FourStepPlan.ColFFTs → S2×S1 spill segments
//	rows: verified segments → FourStepPlan.TransposeScaled → S1 rows →
//	      FourStepPlan.RowFFTs → final transpose (fft.TransposeInto,
//	      the inverse's conj·1/N) into the output Store
//
// These are the in-core plan's own steps (DESIGN §12) with the spill
// between steps 2 and 3: every move touches each element once, in
// cache-line runs, and per element the arithmetic is the in-core
// four-step's, so the out-of-core result is bitwise identical to
// FourStepPlan at any worker count. The two-level ω_N table is what lets
// the scale fit: 512 KiB at N=2^28, where Twiddles(N) would be 2 GiB —
// itself beyond the memory budget the staging exists to enforce.
//
// Memory is governed by an explicit budget: the tile height is the
// largest power of two whose three pipeline tiles (prefetch, compute,
// writeback) plus staging buffers fit, so peak RSS tracks the budget
// rather than N. Strips and segment fetches run in natural order, and
// all I/O is accounted per modelled channel in internal/metrics, so
// I/O-load imbalance is measured, not assumed — the paper's
// bank-balance thesis one level down the memory hierarchy.
package ooc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
	"codeletfft/internal/metrics"
)

// DefaultMemoryBudget bounds the plan's resident tile and staging
// buffers: 256 MiB.
const DefaultMemoryBudget int64 = 256 << 20

// defaultIOWorkers is the number of goroutines the staging layer uses
// for gather/scatter and segment I/O inside each pipeline stage.
const defaultIOWorkers = 4

// config is the resolved option set. Only the spill directory and the
// budget have options; in-package tests set the other fields.
type config struct {
	spillDir  string
	budget    int64
	tileVecs  int // the tile height; 0 (the default) derives it from the budget
	workers   int // ways a tile's FFTs are split over the pool (default GOMAXPROCS)
	ioWorkers int // staging goroutines per pipeline stage (default defaultIOWorkers)
	n1        int // the four-step's N1 (default fft.NearSquareFactor's)
}

// Option configures NewPlan.
type Option func(*config)

// WithSpillDir places spill files under dir (default os.TempDir()).
func WithSpillDir(dir string) Option { return func(c *config) { c.spillDir = dir } }

// WithMemoryBudget bounds the plan's resident buffers to about b bytes
// (default DefaultMemoryBudget). The tile height is derived from it;
// budgets too small for even single-vector tiles fail NewPlan.
func WithMemoryBudget(b int64) Option { return func(c *config) { c.budget = b } }

// tileCost counts the staging bytes of a run with tile height s: the
// three pipeline tiles of s·lmax elements, and what the I/O goroutines
// of the costlier phase hold while they move data — in the rows phase
// each prefetcher a segment buffer and the tile of its transposition,
// each writer the run buffer its chunk of output vectors is gathered in
// (the cols phase holds the same total: each reader a run buffer and
// the tile of its transposition, each writer a segment buffer).
func tileCost(s, lmax int64, ioWorkers int) int64 {
	seg := (segHeaderElems + s*s) * 16
	runs := fft.MoveRuns * s * 16
	return 3*s*lmax*16 + int64(ioWorkers)*(seg+fft.MoveTileBytes+runs)
}

// runCost is the resident estimate the budget is held against: the
// staging of tileCost plus what compute keeps — a sub-plan's work
// buffer per compute goroutine (a tile never runs more than s at once),
// the sub-plan tables and the two-level twiddle table. A vector is
// transformed in its own tile row.
func runCost(fs *fft.FourStepPlan, s int, cfg *config) int64 {
	lmax := int64(max(fs.N1, fs.N2))
	return tileCost(int64(s), lmax, cfg.ioWorkers) + int64(min(cfg.workers, s))*lmax*16 + fs.KernelBytes()
}

// Plan is an out-of-core FFT plan for N = N1·N2 complex points. A
// Plan's geometry is immutable after construction; one plan may run
// concurrent transforms (each run creates its own spill file and draws
// its own buffers), though sharing one memory budget across concurrent
// runs multiplies resident usage accordingly.
type Plan struct {
	n, n1, n2 int
	s1, s2    int // spill block geometry: segments hold S2×S1 elements

	fs *fft.FourStepPlan // the in-core plan of the split: all the arithmetic

	cfg config
	reg *metrics.Registry
	met *meters

	// What a run holds, kept between runs; each pool's buffers have one
	// length. Every element is written before it is read, so stale
	// contents are harmless.
	tiles sync.Pool // pipeline tiles: S·max(N1,N2) elements, so one pool serves both phases
	segs  sync.Pool // segment buffers (segBuf)
	runs  sync.Pool // run buffers of the two endpoint moves: fft.MoveRuns vectors of S
}

// take returns a buffer of n elements from pool, which holds
// *[]complex128 of that one length, allocating when it is empty.
func take(pool *sync.Pool, n int) *[]complex128 {
	if v, _ := pool.Get().(*[]complex128); v != nil {
		return v
	}
	v := make([]complex128, n)
	return &v
}

// NewPlan builds an out-of-core plan for n-point transforms. n must be
// a power of two ≥ 4 (both four-step factors ≥ 2); errors wrap
// fft.ErrUnsupportedLength for other lengths.
func NewPlan(n int, opts ...Option) (*Plan, error) {
	cfg := config{
		budget:    DefaultMemoryBudget,
		workers:   runtime.GOMAXPROCS(0),
		ioWorkers: defaultIOWorkers,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if fft.Log2(n) < 2 {
		return nil, fmt.Errorf("%w: out-of-core plans need a power of two ≥ 4, got %d", fft.ErrUnsupportedLength, n)
	}
	n1, n2 := fft.NearSquareFactor(n)
	if cfg.n1 > 0 {
		n1, n2 = cfg.n1, n/cfg.n1
	}
	fs, err := fft.NewFourStep(n1, n2)
	if err != nil {
		return nil, err
	}
	smax := min(n1, n2)
	s := min(cfg.tileVecs, smax)
	if s <= 0 {
		if need := runCost(fs, 1, &cfg); need > cfg.budget {
			return nil, fmt.Errorf("ooc: memory budget %d B cannot hold even single-vector tiles for N=%d×%d (need %d B)",
				cfg.budget, n1, n2, need)
		}
		s = 1
		for next := 2; next <= smax && runCost(fs, next, &cfg) <= cfg.budget; next *= 2 {
			s = next
		}
	}
	reg := metrics.NewRegistry()
	return &Plan{
		n: n, n1: n1, n2: n2,
		s1: min(s, n1), s2: min(s, n2),
		fs:  fs,
		cfg: cfg,
		reg: reg,
		met: newMeters(reg, ioChannels, ioStripe),
	}, nil
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Factors returns the four-step split N1 ≤ N2.
func (p *Plan) Factors() (n1, n2 int) { return p.n1, p.n2 }

// TileVecs returns the staged vectors per tile in the (cols, rows)
// phases, as the memory budget resolved them.
func (p *Plan) TileVecs() (s2, s1 int) { return p.s2, p.s1 }

// SpillBytes returns the on-disk footprint of one transform's spill
// store, headers included.
func (p *Plan) SpillBytes() int64 {
	segs := int64(p.n2/p.s2) * int64(p.n1/p.s1)
	return segs * (segHeaderLen + int64(p.s1)*int64(p.s2)*16)
}

// Registry returns the registry collecting the plan's instruments.
func (p *Plan) Registry() *metrics.Registry { return p.reg }

// String describes the plan geometry.
func (p *Plan) String() string {
	return fmt.Sprintf("ooc[N=%d=%d×%d tile=%d×%d]", p.n, p.n1, p.n2, p.s2, p.s1)
}

// Transform applies the forward FFT in place, staging through the
// spill store exactly as the file path does — so at RAM-co-runnable
// sizes the result can be compared bit for bit with the in-core
// four-step. len(data) must be N.
func (p *Plan) Transform(data []complex128) error {
	return p.TransformCtx(context.Background(), data)
}

// TransformCtx is Transform with cancellation: between I/O and compute
// steps the run observes ctx and unwinds, leaving data torn but
// resources released.
func (p *Plan) TransformCtx(ctx context.Context, data []complex128) error {
	if len(data) != p.n {
		return fmt.Errorf("%w: data has %d elements, plan wants %d", fft.ErrLengthMismatch, len(data), p.n)
	}
	st := memStore{data}
	return p.run(ctx, st, st, false)
}

// Inverse applies the inverse FFT in place (conjugation identity +
// 1/N scale, the same per-element expressions as the in-core inverse).
func (p *Plan) Inverse(data []complex128) error {
	return p.InverseCtx(context.Background(), data)
}

// InverseCtx is Inverse with cancellation.
func (p *Plan) InverseCtx(ctx context.Context, data []complex128) error {
	if len(data) != p.n {
		return fmt.Errorf("%w: data has %d elements, plan wants %d", fft.ErrLengthMismatch, len(data), p.n)
	}
	st := memStore{data}
	return p.run(ctx, st, st, true)
}

// TransformBatch transforms every row of batch sequentially — each row
// is a full staged run; there is no cross-row batching to amortize,
// the spill I/O dominates. It exists so *Plan satisfies the facade's
// Plan interface.
func (p *Plan) TransformBatch(batch [][]complex128) error {
	for i, row := range batch {
		if err := p.Transform(row); err != nil {
			return fmt.Errorf("batch[%d]: %w", i, err)
		}
	}
	return nil
}

// InverseBatch inverse-transforms every row of batch sequentially.
func (p *Plan) InverseBatch(batch [][]complex128) error {
	for i, row := range batch {
		if err := p.Inverse(row); err != nil {
			return fmt.Errorf("batch[%d]: %w", i, err)
		}
	}
	return nil
}

// TransformFile transforms N points from srcPath into dstPath, both
// flat native-order complex128 files. dstPath is created (or truncated)
// at N·16 bytes; passing the same path for both transforms the file in
// place. The source length must be exactly N·16 bytes.
func (p *Plan) TransformFile(ctx context.Context, dstPath, srcPath string) error {
	return p.runFile(ctx, dstPath, srcPath, false)
}

// InverseFile is TransformFile for the inverse transform.
func (p *Plan) InverseFile(ctx context.Context, dstPath, srcPath string) error {
	return p.runFile(ctx, dstPath, srcPath, true)
}

func (p *Plan) runFile(ctx context.Context, dstPath, srcPath string, inverse bool) error {
	src, err := os.Open(srcPath)
	if err != nil {
		return fmt.Errorf("ooc: opening input: %w", err)
	}
	defer src.Close()
	fi, err := src.Stat()
	if err != nil {
		return err
	}
	if want := int64(p.n) * 16; fi.Size() != want {
		return fmt.Errorf("ooc: input %s is %d bytes, want %d (N=%d complex128)", srcPath, fi.Size(), want, p.n)
	}
	var dst *os.File
	if filepath.Clean(dstPath) == filepath.Clean(srcPath) {
		// In-place: the cols phase fully drains the input into the
		// spill before the rows phase writes a single output element,
		// so one file can serve both ends.
		dst, err = os.OpenFile(dstPath, os.O_RDWR, 0o644)
	} else {
		dst, err = os.OpenFile(dstPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err == nil {
			err = dst.Truncate(int64(p.n) * 16)
		}
	}
	if err != nil {
		return fmt.Errorf("ooc: opening output: %w", err)
	}
	defer dst.Close()
	return p.run(ctx, fileStore{dst}, fileStore{src}, inverse)
}

// run stages one transform: cols phase into the spill, rows phase out
// of it. The spill is created per run and removed on return, success
// or not.
func (p *Plan) run(ctx context.Context, dst, src Store, inverse bool) error {
	nsegs := (p.n2 / p.s2) * (p.n1 / p.s1)
	sp, err := newSpill(p.cfg.spillDir, p.s1*p.s2, nsegs)
	if err != nil {
		return err
	}
	defer sp.Close()

	start := time.Now()
	if err := p.runPhase(ctx, p.colsPhase(sp, src, inverse)); err != nil {
		return fmt.Errorf("ooc: cols phase: %w", err)
	}
	p.met.colsNs.Add(time.Since(start).Nanoseconds())

	start = time.Now()
	if err := p.runPhase(ctx, p.rowsPhase(sp, dst, inverse)); err != nil {
		return fmt.Errorf("ooc: rows phase: %w", err)
	}
	p.met.rowsNs.Add(time.Since(start).Nanoseconds())
	p.met.transforms.Inc()
	return nil
}

// phase describes one staged pass for the pipeline driver: strips
// items of tileLen elements flowing fill → compute → drain.
type phase struct {
	strips  int
	tileLen int
	// stripOff maps a strip to the byte offset of its first fetch, for
	// channel attribution of prefetch stalls.
	stripOff func(strip int) int64
	fill     func(ctx context.Context, strip int, tile []complex128) error
	compute  func(ctx context.Context, strip int, tile []complex128) error
	drain    func(ctx context.Context, strip int, tile []complex128) error
}

// tileRef is a tile in flight through the pipeline.
type tileRef struct {
	buf   []complex128
	strip int
}

// runPhase drives a phase's strips through a three-stage pipeline —
// prefetch (fill), compute, writeback (drain) — over a bounded pool of
// three tiles, so the reader stays one strip ahead of compute
// (double-buffered prefetch) while the writer drains the strip behind
// it.
func (p *Plan) runPhase(ctx context.Context, ph phase) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	const nbuf = 3
	var tiles [nbuf]*[]complex128
	free := make(chan []complex128, nbuf)
	for i := range tiles {
		tiles[i] = take(&p.tiles, p.s1*max(p.n1, p.n2)) // s1 = s2
		free <- (*tiles[i])[:ph.tileLen]
	}
	compCh := make(chan tileRef)
	drainCh := make(chan tileRef)

	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // prefetcher: an I/O stage, blocked in fill's reads
		defer wg.Done()
		defer close(compCh)
		for s := 0; s < ph.strips; s++ {
			var buf []complex128
			waitStart := time.Now()
			select {
			case buf = <-free:
			case <-ctx.Done():
				return
			}
			if wait := time.Since(waitStart); wait > 0 {
				p.met.poolStalls.Inc()
				p.met.poolStallNs.Add(wait.Nanoseconds())
			}
			if err := ph.fill(ctx, s, buf); err != nil {
				fail(err)
				return
			}
			select {
			case compCh <- tileRef{buf, s}:
			case <-ctx.Done():
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // writeback: an I/O stage, blocked in drain's writes
		defer wg.Done()
		for t := range drainCh {
			// After a failure, keep recycling tiles so compute never
			// blocks; the work itself is skipped via ctx.
			if ctx.Err() == nil {
				if err := ph.drain(ctx, t.strip, t.buf); err != nil {
					fail(err)
				}
			}
			free <- t.buf
		}
	}()

	// Compute runs on the caller's goroutine (its vector loop is shared
	// with the process's worker pool).
compute:
	for {
		waitStart := time.Now()
		select {
		case t, ok := <-compCh:
			if !ok {
				break compute
			}
			if wait := time.Since(waitStart); wait > 0 {
				p.met.onStall(ph.stripOff(t.strip), wait.Nanoseconds())
			}
			if ctx.Err() == nil {
				if err := ph.compute(ctx, t.strip, t.buf); err != nil {
					fail(err)
				}
			}
			drainCh <- t
		case <-ctx.Done():
			// Drain the prefetcher's remaining sends so it can exit.
			t, ok := <-compCh
			if !ok {
				break compute
			}
			drainCh <- t
		}
	}
	close(drainCh)
	wg.Wait()
	for _, t := range tiles { // both stages have exited: nothing holds a tile
		p.tiles.Put(t)
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// parallelIdx runs fn(idx) for every idx in [0, n) across w
// goroutines pulling indices from a shared counter. It returns the
// first error. Its callers are the staging steps, and an index is a
// chunk of a step's move — a segment, or the vectors of one move tile —
// so the dispatch and the ctx check are paid per chunk, not per
// vector. The chunks block in
// pread/pwrite: they get goroutines of their own, because a blocked
// syscall must not park one of the process's CPU workers (host.Do,
// which the two compute steps use).
func parallelIdx(ctx context.Context, w, n int, fn func(idx int) error) error {
	if w > n {
		w = n
	}
	var next atomic.Int64
	var failed atomic.Bool
	var once sync.Once
	var firstErr error
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() {
						firstErr = err
						failed.Store(true)
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// colsPhase stages strip i of S2 input columns: strided gather from
// src, N1-point FFT per column, the bins into S2×S1 block segments of
// the spill. The tile holds one column per row — S2 rows of N1
// elements — moved there by the fill and transformed in place by
// compute, so each of the three steps moves or sweeps every element
// once.
func (p *Plan) colsPhase(sp *spill, src Store, inverse bool) phase {
	n1, n2, s1, s2 := p.n1, p.n2, p.s1, p.s2
	blocksPerStrip := n1 / s1
	iow := p.cfg.ioWorkers

	return phase{
		strips:   n2 / s2,
		tileLen:  s2 * n1,
		stripOff: func(strip int) int64 { return int64(strip) * int64(s2) * 16 },
		// fill: the column gather as one tiled move. A chunk is
		// MoveRuns source vectors j1, each read whole into the chunk's
		// run buffer and transposed from there into the tile's columns.
		fill: func(ctx context.Context, strip int, tile []complex128) error {
			base := int64(strip) * int64(s2)
			chunks := (n1 + fft.MoveRuns - 1) / fft.MoveRuns
			return parallelIdx(ctx, iow, chunks, func(ch int) error {
				runs := take(&p.runs, fft.MoveRuns*s2)
				defer p.runs.Put(runs)
				j0 := ch * fft.MoveRuns
				h := min(fft.MoveRuns, n1-j0)
				acc := p.met.reads(p.met.colsReadBytes)
				defer acc.flush()
				for j := 0; j < h; j++ {
					off := int64(j0+j)*int64(n2) + base
					if err := src.ReadVec((*runs)[j*s2:(j+1)*s2], off); err != nil {
						return err
					}
					acc.add(off*16, int64(s2)*16)
				}
				fft.TransposeConj(tile[j0:], n1, *runs, s2, h, s2, inverse, 1)
				return nil
			})
		},
		compute: func(ctx context.Context, strip int, tile []complex128) error {
			host.Do(p.cfg.workers, &fft.Pass{Units: s2, Run: func(_ *fft.State, lo, hi int) {
				for c := lo; c < hi && ctx.Err() == nil; c++ {
					p.fs.ColFFTs(tile[c*n1 : (c+1)*n1])
				}
			}}, nil)
			return ctx.Err()
		},
		// drain: the S2×S1 block layout as one sweep from the columns
		// into the segment buffer. A chunk is one segment: the S1-bin
		// window of all S2 columns, unscaled — the rows fill scales it.
		drain: func(ctx context.Context, strip int, tile []complex128) error {
			return parallelIdx(ctx, iow, blocksPerStrip, func(j int) error {
				sb := take(&p.segs, segHeaderElems+s1*s2)
				defer p.segs.Put(sb)
				buf := segBuf(*sb).payload()
				for c := 0; c < s2; c++ {
					copy(buf[c*s1:(c+1)*s1], tile[c*n1+j*s1:])
				}
				idx := strip*blocksPerStrip + j
				nb, err := sp.write(idx, *sb)
				if err != nil {
					return err
				}
				p.met.segsWritten.Inc()
				p.met.onWrite(sp.segOff(idx), nb, p.met.colsWriteBytes)
				return nil
			})
		},
	}
}

// rowsPhase stages strip j of S1 output rows: fetch and verify the
// strip's block-column of segments, scale-transpose into an S1×N2 slab,
// N2-point FFT per row in place, scatter the final transpose (+ the
// inverse's conjugate/scale) into dst.
func (p *Plan) rowsPhase(sp *spill, dst Store, inverse bool) phase {
	n1, n2, s1, s2 := p.n1, p.n2, p.s1, p.s2
	blocksPerStrip := n1 / s1
	segStrips := n2 / s2
	iow := p.cfg.ioWorkers
	inv := 1 / float64(p.n)

	return phase{
		strips:   blocksPerStrip,
		tileLen:  s1 * n2,
		stripOff: func(strip int) int64 { return sp.segOff(strip) },
		// fill: a chunk is one verified segment, scaled and transposed in
		// tiles (step 3) into its S2-column window of the slab.
		fill: func(ctx context.Context, strip int, tile []complex128) error {
			return parallelIdx(ctx, iow, segStrips, func(i int) error {
				sb := take(&p.segs, segHeaderElems+s1*s2)
				defer p.segs.Put(sb)
				idx := i*blocksPerStrip + strip
				nb, err := sp.read(idx, *sb)
				if err != nil {
					p.met.corrupt.Inc()
					return err
				}
				p.met.segsRead.Inc()
				p.met.onRead(sp.segOff(idx), nb, p.met.rowsReadBytes)
				p.fs.TransposeScaled(tile[i*s2:], n2, segBuf(*sb).payload(), s1, i*s2, s2, strip*s1, s1)
				return nil
			})
		},
		compute: func(ctx context.Context, strip int, tile []complex128) error {
			host.Do(p.cfg.workers, &fft.Pass{Units: s1, Run: func(_ *fft.State, lo, hi int) {
				for r := lo; r < hi && ctx.Err() == nil; r++ {
					p.fs.RowFFTs(tile[r*n2 : (r+1)*n2])
				}
			}}, nil)
			return ctx.Err()
		},
		// drain: the final transpose — conj·1/N with it for the inverse —
		// straight into the run buffer, which stays in cache. A chunk is
		// up to MoveRuns output vectors (bins k2), gathered in the
		// chunk's run buffer and each written whole.
		drain: func(ctx context.Context, strip int, tile []complex128) error {
			base := int64(strip) * int64(s1)
			chunks := (n2 + fft.MoveRuns - 1) / fft.MoveRuns
			return parallelIdx(ctx, iow, chunks, func(ch int) error {
				runs := take(&p.runs, fft.MoveRuns*s1)
				defer p.runs.Put(runs)
				k0 := ch * fft.MoveRuns
				w := min(fft.MoveRuns, n2-k0)
				fft.TransposeInto(*runs, s1, tile[k0:], n2, s1, w, inverse, inv)
				acc := p.met.writes(p.met.rowsWriteBytes)
				defer acc.flush()
				for c := 0; c < w; c++ {
					off := int64(k0+c)*int64(n1) + base
					if err := dst.WriteVec((*runs)[c*s1:(c+1)*s1], off); err != nil {
						return err
					}
					acc.add(off*16, int64(s1)*16)
				}
				return nil
			})
		},
	}
}
