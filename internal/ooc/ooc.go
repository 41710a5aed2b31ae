// Package ooc executes Fourier transforms on datasets larger than RAM:
// a Bailey four-step decomposition (internal/fft.FourStepPlan's math)
// whose intermediate N2×N1 matrix lives in a checksummed, file-backed
// spill store instead of memory, streamed through a bounded pool of
// in-RAM tiles with double-buffered asynchronous prefetch.
//
// The transform runs as two staged phases over the spill:
//
//	cols: gather S2 input columns (strided reads) → N1-point FFT each →
//	      four-step twiddle scale + pack into S2×S1 block segments
//	rows: fetch a block-column of segments (verified, contiguous reads)
//	      → transpose into S1 rows → N2-point FFT each → scatter the
//	      final transpose into the output (strided writes)
//
// The sub-FFTs and the twiddle scale are not re-implemented here: both
// phases run the in-core plan's own tile kernel with its data moves
// taken out (FourStepPlan.ColStages and RowStages — the serial SoA
// codelets' sweeps on a vector held as split planes in its tile row —
// plus the two-level ω_N table), and the kernel's pack, unpack and
// scale are what the four staging moves do on their way through, each
// moving every element once, in cache-line runs (fft.PackColumns,
// TwoLevelTable.ScaleFrom, fft.TransposeBlock, fft.UnpackColumns). Per
// element it is the same sequence of operations, and the inverse's
// conjugate/scale is the same expression, so at sizes where both run
// the out-of-core result is bitwise identical to the in-core four-step
// at any worker count. The two-level table is what lets the scale fit:
// 512 KiB at N=2^28, where Twiddles(N) would be 2 GiB — itself beyond
// the memory budget the staging exists to enforce.
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

// Default knob values.
const (
	// DefaultMemoryBudget bounds the plan's resident tile and staging
	// buffers: 256 MiB.
	DefaultMemoryBudget int64 = 256 << 20
	// DefaultIOWorkers is the number of goroutines the staging layer
	// uses for gather/scatter and segment I/O inside each pipeline
	// stage.
	DefaultIOWorkers = 4
)

// config is the resolved option set.
type config struct {
	spillDir  string
	budget    int64
	tileVecs  int
	workers   int
	ioWorkers int
	reg       *metrics.Registry
	factor    func(n int) (int, int)
}

// Option configures NewPlan.
type Option func(*config)

// WithSpillDir places spill files under dir (default os.TempDir()).
func WithSpillDir(dir string) Option { return func(c *config) { c.spillDir = dir } }

// WithMemoryBudget bounds the plan's resident buffers to about b bytes
// (default DefaultMemoryBudget). The tile height is derived from it;
// budgets too small for even single-vector tiles fail NewPlan.
func WithMemoryBudget(b int64) Option { return func(c *config) { c.budget = b } }

// WithTileVecs pins the tile height (vectors staged per tile) instead
// of deriving it from the memory budget. It must be a power of two;
// it is clamped to the plan's factor lengths.
func WithTileVecs(v int) Option { return func(c *config) { c.tileVecs = v } }

// WithWorkers sets how many ways a tile's vectors are split over the
// process's worker pool (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithIOWorkers sets the staging goroutines per pipeline stage
// (default DefaultIOWorkers).
func WithIOWorkers(n int) Option { return func(c *config) { c.ioWorkers = n } }

// WithRegistry collects the plan's instruments in r instead of a
// private registry.
func WithRegistry(r *metrics.Registry) Option { return func(c *config) { c.reg = r } }

// WithFactor overrides the N = N1·N2 split (default near-square).
func WithFactor(f func(n int) (int, int)) Option { return func(c *config) { c.factor = f } }

// nearSquareFactor splits a power-of-two n into the most balanced
// power-of-two pair n1 ≤ n2.
func nearSquareFactor(n int) (int, int) {
	logN := fft.Log2(n)
	l1 := logN / 2
	return 1 << l1, 1 << (logN - l1)
}

// tileCost counts the staging bytes of a run with tile height s: the
// three pipeline tiles of s·lmax elements, and what the I/O goroutines
// of the costlier phase hold while they move data — in the rows phase
// each prefetcher a segment buffer and the tile of its transposition,
// each writer the run buffer its chunk of output vectors is gathered in
// (the cols phase holds a subset: a run buffer per reader, a segment
// buffer per writer).
func tileCost(s, lmax int64, ioWorkers int) int64 {
	seg := (segHeaderElems + s*s) * 16
	runs := fft.MoveRuns * s * 16
	return 3*s*lmax*16 + int64(ioWorkers)*(seg+fft.MoveTileBytes+runs)
}

// runCost is the resident estimate the budget is held against: the
// staging of tileCost plus what compute keeps — a row of pack scratch
// per compute goroutine (a tile never runs more than s at once), the
// sub-plan tables and the two-level twiddle table. There is no frame
// term: a vector is transformed in its own tile row.
func runCost(fs *fft.FourStepPlan, s int, cfg *config) int64 {
	return tileCost(int64(s), int64(max(fs.N1, fs.N2)), cfg.ioWorkers) +
		int64(min(cfg.workers, s))*int64(fs.N2)*16 + fs.KernelBytes()
}

// Plan is an out-of-core FFT plan for N = N1·N2 complex points. A
// Plan's geometry is immutable after construction; one plan may run
// concurrent transforms (each run creates its own spill file and draws
// its own buffers), though sharing one memory budget across concurrent
// runs multiplies resident usage accordingly.
type Plan struct {
	n, n1, n2 int
	s1, s2    int // spill block geometry: segments hold S2×S1 elements

	// fs is the in-core plan of the same split; its stage kernel and
	// two-level table do all of both phases' arithmetic.
	fs *fft.FourStepPlan
	tw *fft.TwoLevelTable

	cfg config
	met *meters

	// What a run holds, kept between runs; each pool's buffers have one
	// length. Every element is written before it is read, so stale
	// contents are harmless.
	tiles   sync.Pool // pipeline tiles: S·max(N1,N2) elements, so one pool serves both phases
	segs    sync.Pool // segment buffers (segBuf)
	runs    sync.Pool // run buffers of the two endpoint moves: fft.MoveRuns vectors of S
	scratch sync.Pool // the rows compute's pack scratch: one row
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
		ioWorkers: DefaultIOWorkers,
		factor:    nearSquareFactor,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ioWorkers <= 0 {
		cfg.ioWorkers = DefaultIOWorkers
	}
	if cfg.factor == nil {
		cfg.factor = nearSquareFactor
	}
	if cfg.reg == nil {
		cfg.reg = metrics.NewRegistry()
	}
	if fft.Log2(n) < 2 {
		return nil, fmt.Errorf("%w: out-of-core plans need a power of two ≥ 4, got %d", fft.ErrUnsupportedLength, n)
	}
	n1, n2 := cfg.factor(n)
	if n1*n2 != n || fft.Log2(n1) < 1 || fft.Log2(n2) < 1 {
		return nil, fmt.Errorf("%w: factorization %d×%d invalid for N=%d", fft.ErrUnsupportedLength, n1, n2, n)
	}
	fs, err := fft.NewFourStep(n1, n2)
	if err != nil {
		return nil, err
	}
	smax := min(n1, n2)
	s := cfg.tileVecs
	if s > 0 {
		if s&(s-1) != 0 {
			return nil, fmt.Errorf("ooc: tile height %d is not a power of two", s)
		}
		s = min(s, smax)
	} else {
		if need := runCost(fs, 1, &cfg); need > cfg.budget {
			return nil, fmt.Errorf("ooc: memory budget %d B cannot hold even single-vector tiles for N=%d×%d (need %d B)",
				cfg.budget, n1, n2, need)
		}
		s = 1
		for next := 2; next <= smax && runCost(fs, next, &cfg) <= cfg.budget; next *= 2 {
			s = next
		}
	}
	return &Plan{
		n: n, n1: n1, n2: n2,
		s1: min(s, n1), s2: min(s, n2),
		fs:  fs,
		tw:  fft.TwoLevelTwiddles(n),
		cfg: cfg,
		met: newMeters(cfg.reg, ioChannels, ioStripe),
	}, nil
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Factors returns the four-step split N1 ≤ N2 (unless overridden).
func (p *Plan) Factors() (n1, n2 int) { return p.n1, p.n2 }

// TileVecs returns the staged vectors per tile in the (cols, rows)
// phases — the knob the memory budget resolves.
func (p *Plan) TileVecs() (s2, s1 int) { return p.s2, p.s1 }

// SpillBytes returns the on-disk footprint of one transform's spill
// store, headers included.
func (p *Plan) SpillBytes() int64 {
	segs := int64(p.n2/p.s2) * int64(p.n1/p.s1)
	return segs * (segHeaderLen + int64(p.s1)*int64(p.s2)*16)
}

// Registry returns the registry collecting the plan's instruments.
func (p *Plan) Registry() *metrics.Registry { return p.cfg.reg }

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
// src, N1-point FFT per column, twiddle scale + pack into S2×S1 block
// segments of the spill. The tile holds one column per row — S2 rows of
// N1 elements — but between fill and drain a row is not samples: it is
// the column's split planes (fft.FrameOf), bit-reversed by the fill and
// transformed in place by compute, so each of the three steps moves or
// sweeps every element once.
func (p *Plan) colsPhase(sp *spill, src Store, inverse bool) phase {
	n1, n2, s1, s2 := p.n1, p.n2, p.s1, p.s2
	blocksPerStrip := n1 / s1
	iow := p.cfg.ioWorkers
	logN1 := fft.Log2(n1)

	return phase{
		strips:   n2 / s2,
		tileLen:  s2 * n1,
		stripOff: func(strip int) int64 { return int64(strip) * int64(s2) * 16 },
		// fill: the column gather and the SoA pack as one tiled move. A
		// chunk is the min(N1, 64) source vectors of one pack tile, each
		// read whole into the chunk's run buffer.
		fill: func(ctx context.Context, strip int, tile []complex128) error {
			base := int64(strip) * int64(s2)
			return parallelIdx(ctx, iow, fft.PackColumnTiles(logN1), func(b int) error {
				runs := take(&p.runs, fft.MoveRuns*s2)
				defer p.runs.Put(runs)
				acc := p.met.reads(p.met.colsReadBytes)
				defer acc.flush()
				var err error
				fft.PackColumns(tile, logN1, b, s2, inverse, *runs, func(run []complex128, j1 int) {
					if err != nil {
						return
					}
					off := int64(j1)*int64(n2) + base
					if err = src.ReadVec(run, off); err == nil {
						acc.add(off*16, int64(s2)*16)
					}
				})
				return err
			})
		},
		compute: func(ctx context.Context, strip int, tile []complex128) error {
			host.Do(p.cfg.workers, s2, func(lo, hi int) {
				for c := lo; c < hi && ctx.Err() == nil; c++ {
					f := fft.FrameOf(tile[c*n1 : (c+1)*n1])
					p.fs.ColStages(&f)
				}
			})
			return ctx.Err()
		},
		// drain: unpack, twiddle scale and the S2×S1 block layout as one
		// sweep from the planes into the segment buffer. A chunk is one
		// segment: the S1-bin window of all S2 columns.
		drain: func(ctx context.Context, strip int, tile []complex128) error {
			return parallelIdx(ctx, iow, blocksPerStrip, func(j int) error {
				sb := take(&p.segs, segHeaderElems+s1*s2)
				defer p.segs.Put(sb)
				buf := segBuf(*sb).payload()
				for c := 0; c < s2; c++ {
					f := fft.FrameOf(tile[c*n1 : (c+1)*n1])
					p.tw.ScaleFrom(buf[c*s1:(c+1)*s1], f.Re[j*s1:], f.Im[j*s1:], strip*s2+c, j*s1)
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
// strip's block-column of segments, transpose into an S1×N2 slab,
// N2-point FFT per row, scatter the final transpose (+ the inverse's
// conjugate/scale) into dst. Compute leaves a row as its split planes,
// which is what the drain reads.
func (p *Plan) rowsPhase(sp *spill, dst Store, inverse bool) phase {
	n1, n2, s1, s2 := p.n1, p.n2, p.s1, p.s2
	blocksPerStrip := n1 / s1
	segStrips := n2 / s2
	iow := p.cfg.ioWorkers
	logN2 := fft.Log2(n2)
	inv := 1 / float64(p.n)

	return phase{
		strips:   blocksPerStrip,
		tileLen:  s1 * n2,
		stripOff: func(strip int) int64 { return sp.segOff(strip) },
		// fill: a chunk is one verified segment, transposed in tiles
		// into its S2-column window of the slab.
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
				fft.TransposeBlock(tile[i*s2:], n2, segBuf(*sb).payload(), s1, s2, s1)
				return nil
			})
		},
		// compute: a row is packed once, through a scratch copy, into
		// its own memory as planes, and transformed there.
		compute: func(ctx context.Context, strip int, tile []complex128) error {
			host.Do(p.cfg.workers, s1, func(lo, hi int) {
				sc := take(&p.scratch, n2)
				defer p.scratch.Put(sc)
				for r := lo; r < hi && ctx.Err() == nil; r++ {
					row := tile[r*n2 : (r+1)*n2]
					copy(*sc, row)
					f := fft.FrameOf(row)
					f.PackTiles(*sc, 0, fft.SoAPackTiles(logN2), logN2, false)
					p.fs.RowStages(&f)
				}
			})
			return ctx.Err()
		},
		// drain: the final transpose as a tiled move out of the planes —
		// the unpack, and conj·1/N with it for the inverse, on the way. A
		// chunk is up to 64 output vectors (bins k2), gathered in the
		// chunk's run buffer and each written whole.
		drain: func(ctx context.Context, strip int, tile []complex128) error {
			base := int64(strip) * int64(s1)
			chunks := (n2 + fft.MoveRuns - 1) / fft.MoveRuns
			return parallelIdx(ctx, iow, chunks, func(ch int) error {
				runs := take(&p.runs, fft.MoveRuns*s1)
				defer p.runs.Put(runs)
				k0 := ch * fft.MoveRuns
				w := min(fft.MoveRuns, n2-k0)
				fft.UnpackColumns(*runs, tile, n2, s1, k0, w, inverse, inv)
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
