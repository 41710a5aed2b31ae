// Package ooc executes Fourier transforms on datasets larger than RAM:
// a Bailey four-step decomposition (internal/fft.FourStepPlan's math)
// whose intermediate N2×N1 matrix lives in a checksummed, file-backed
// spill store instead of memory, streamed through a bounded pool of
// in-RAM tiles with double-buffered asynchronous prefetch.
//
// The transform runs as two staged phases over the spill:
//
//	cols: gather S2 input columns (strided reads) → N1-point FFT each +
//	      four-step twiddle scale → pack into S2×S1 block segments
//	rows: fetch a block-column of segments (verified, contiguous reads)
//	      → transpose into S1 rows → N2-point FFT each → scatter the
//	      final transpose into the output (strided writes)
//
// The sub-FFTs and the twiddle scale are not re-implemented here: both
// phases call the in-core plan's own tile kernel (FourStepPlan.Cols and
// Rows — the serial SoA codelets plus the two-level ω_N table) one
// vector at a time, and the inverse's conjugate/scale is the same
// expression, so at sizes where both run the out-of-core result is
// bitwise identical to the in-core four-step at any worker count. The
// two-level table is what lets the scale fit: 512 KiB at N=2^28, where
// Twiddles(N) would be 2 GiB — itself beyond the memory budget the
// staging exists to enforce.
//
// Memory is governed by an explicit budget: the tile height is the
// largest power of two whose three pipeline tiles (prefetch, compute,
// writeback) plus staging buffers fit, so peak RSS tracks the budget
// rather than N. Prefetch order is a pluggable Policy (FIFO vs the
// paper-echoing seeded-LIFO sibling groups) and all I/O is accounted
// per modelled channel in internal/metrics, so I/O-load imbalance is
// measured, not assumed — the paper's bank-balance thesis one level
// down the memory hierarchy.
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
	// DefaultChannels is the number of modelled I/O channels byte
	// counters are split across.
	DefaultChannels = 4
	// DefaultStripe is the byte stripe width of the channel model: a
	// file offset's channel is (offset/stripe) mod channels.
	DefaultStripe int64 = 1 << 20
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
	channels  int
	stripe    int64
	policy    Policy
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

// WithChannels sets how many modelled I/O channels the byte and stall
// counters are split across (default DefaultChannels).
func WithChannels(n int) Option { return func(c *config) { c.channels = n } }

// WithStripe sets the channel model's byte stripe width (default
// DefaultStripe).
func WithStripe(b int64) Option { return func(c *config) { c.stripe = b } }

// WithPolicy selects the prefetch scheduling policy (default FIFO()).
func WithPolicy(p Policy) Option { return func(c *config) { c.policy = p } }

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

// tileCost estimates the staging bytes of a run with tile height s:
// three pipeline tiles of s·lmax elements, plus two staging-buffer
// sets (segment pack/fetch, s·s each) and two small gather/scatter
// stagers per I/O worker.
func tileCost(s, lmax int64, ioWorkers int) int64 {
	iow := int64(ioWorkers)
	return 3*s*lmax*16 + 2*iow*s*s*16 + 2*iow*s*16
}

// runCost is the resident estimate the budget is held against: the
// staging of tileCost plus what the compute kernel keeps — a frame per
// compute goroutine (a tile never runs more than s at once), the
// sub-plan tables and the two-level twiddle table.
func runCost(fs *fft.FourStepPlan, s int, cfg *config) int64 {
	return tileCost(int64(s), int64(max(fs.N1, fs.N2)), cfg.ioWorkers) + fs.KernelBytes(min(cfg.workers, s))
}

// Plan is an out-of-core FFT plan for N = N1·N2 complex points. A Plan
// is immutable after construction; one plan may run concurrent
// transforms (each run creates its own spill file and buffers), though
// sharing one memory budget across concurrent runs multiplies resident
// usage accordingly.
type Plan struct {
	n, n1, n2 int
	s1, s2    int // spill block geometry: segments hold S2×S1 elements

	// fs is the in-core plan of the same split; its tile kernel does
	// all of both phases' arithmetic.
	fs *fft.FourStepPlan

	cfg config
	met *meters
}

// NewPlan builds an out-of-core plan for n-point transforms. n must be
// a power of two ≥ 4 (both four-step factors ≥ 2); errors wrap
// fft.ErrUnsupportedLength for other lengths.
func NewPlan(n int, opts ...Option) (*Plan, error) {
	cfg := config{
		budget:    DefaultMemoryBudget,
		ioWorkers: DefaultIOWorkers,
		channels:  DefaultChannels,
		stripe:    DefaultStripe,
		policy:    FIFO(),
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
	if cfg.channels <= 0 {
		cfg.channels = DefaultChannels
	}
	if cfg.stripe <= 0 {
		cfg.stripe = DefaultStripe
	}
	if cfg.policy == nil {
		cfg.policy = FIFO()
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
		cfg: cfg,
		met: newMeters(cfg.reg, cfg.channels, cfg.stripe),
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

// Policy returns the plan's prefetch scheduling policy.
func (p *Plan) Policy() Policy { return p.cfg.policy }

// Registry returns the registry collecting the plan's instruments.
func (p *Plan) Registry() *metrics.Registry { return p.cfg.reg }

// String describes the plan geometry.
func (p *Plan) String() string {
	return fmt.Sprintf("ooc[N=%d=%d×%d tile=%d×%d policy=%s]", p.n, p.n1, p.n2, p.s2, p.s1, p.cfg.policy.Name())
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
// it. Strip order comes from the plan's scheduling policy; strips are
// independent, so ordering affects I/O timing and channel balance, not
// the result.
func (p *Plan) runPhase(ctx context.Context, ph phase) error {
	order := p.cfg.policy.Order(ph.strips)
	if !validOrder(order, ph.strips) {
		return fmt.Errorf("ooc: policy %s returned an invalid order for %d strips", p.cfg.policy.Name(), ph.strips)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	const nbuf = 3
	free := make(chan []complex128, nbuf)
	for i := 0; i < nbuf; i++ {
		free <- make([]complex128, ph.tileLen)
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
		for _, s := range order {
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
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// parallelIdx runs fn(worker, idx) for every idx in [0, n) across w
// goroutines pulling indices from a shared counter, optionally through
// a policy-ordered index list. It returns the first error. Its callers
// are the staging steps, whose units block in pread/pwrite: they get
// goroutines of their own, because a blocked syscall must not park one
// of the process's CPU workers (host.Do, which the two compute steps
// use).
func parallelIdx(ctx context.Context, w, n int, order []int, fn func(worker, idx int) error) error {
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
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				idx := i
				if order != nil {
					idx = order[i]
				}
				if err := fn(worker, idx); err != nil {
					once.Do(func() {
						firstErr = err
						failed.Store(true)
					})
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// colsPhase stages strip i of S2 input columns: strided gather from
// src, N1-point FFT + twiddle scale per column, pack into S2×S1 block
// segments of the spill. The tile is an S2×N1 row-major slab (one
// transformed column per row).
func (p *Plan) colsPhase(sp *spill, src Store, inverse bool) phase {
	n1, n2, s1, s2 := p.n1, p.n2, p.s1, p.s2
	blocksPerStrip := n1 / s1
	iow := p.cfg.ioWorkers

	// Per-goroutine staging, allocated once per phase: gather stagers
	// for fill, pack buffers for drain (fill and drain run in
	// different pipeline goroutines, so the sets are distinct).
	gatherStage := make([][]complex128, iow)
	for i := range gatherStage {
		gatherStage[i] = make([]complex128, s2)
	}
	packBuf := make([][]complex128, iow)
	for i := range packBuf {
		packBuf[i] = make([]complex128, s1*s2)
	}

	return phase{
		strips:   n2 / s2,
		tileLen:  s2 * n1,
		stripOff: func(strip int) int64 { return int64(strip) * int64(s2) * 16 },
		fill: func(ctx context.Context, strip int, tile []complex128) error {
			base := int64(strip) * int64(s2)
			return parallelIdx(ctx, iow, n1, nil, func(worker, j1 int) error {
				stage := gatherStage[worker]
				off := int64(j1)*int64(n2) + base
				if err := src.ReadVec(stage, off); err != nil {
					return err
				}
				p.met.onRead(off*16, int64(s2)*16, p.met.colsReadBytes)
				if inverse {
					for c, v := range stage {
						tile[c*n1+j1] = complex(real(v), -imag(v))
					}
				} else {
					for c, v := range stage {
						tile[c*n1+j1] = v
					}
				}
				return nil
			})
		},
		compute: func(ctx context.Context, strip int, tile []complex128) error {
			host.Do(p.cfg.workers, s2, func(lo, hi int) {
				for c := lo; c < hi && ctx.Err() == nil; c++ {
					p.fs.Cols(tile[c*n1:(c+1)*n1], strip*s2+c)
				}
			})
			return ctx.Err()
		},
		drain: func(ctx context.Context, strip int, tile []complex128) error {
			return parallelIdx(ctx, iow, blocksPerStrip, nil, func(worker, j int) error {
				buf := packBuf[worker]
				for c := 0; c < s2; c++ {
					copy(buf[c*s1:(c+1)*s1], tile[c*n1+j*s1:c*n1+(j+1)*s1])
				}
				idx := strip*blocksPerStrip + j
				nb, err := sp.writeSegment(idx, buf)
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
// strip's block-column of segments (order chosen by the policy),
// transpose into an S1×N2 slab, N2-point FFT per row (+ the inverse's
// conjugate/scale), scatter the final transpose into dst.
func (p *Plan) rowsPhase(sp *spill, dst Store, inverse bool) phase {
	n1, n2, s1, s2 := p.n1, p.n2, p.s1, p.s2
	blocksPerStrip := n1 / s1
	segStrips := n2 / s2
	iow := p.cfg.ioWorkers
	inv := 1 / float64(p.n)

	fetchBuf := make([][]complex128, iow)
	for i := range fetchBuf {
		fetchBuf[i] = make([]complex128, s1*s2)
	}
	scatterStage := make([][]complex128, iow)
	for i := range scatterStage {
		scatterStage[i] = make([]complex128, s1)
	}

	return phase{
		strips:   blocksPerStrip,
		tileLen:  s1 * n2,
		stripOff: func(strip int) int64 { return sp.segOff(strip) },
		fill: func(ctx context.Context, strip int, tile []complex128) error {
			// The segment fetch order inside the strip is also
			// policy-scheduled: this is the prefetch ordering the
			// per-channel counters measure.
			order := p.cfg.policy.Order(segStrips)
			if !validOrder(order, segStrips) {
				return fmt.Errorf("ooc: policy %s returned an invalid order for %d segments", p.cfg.policy.Name(), segStrips)
			}
			return parallelIdx(ctx, iow, segStrips, order, func(worker, i int) error {
				buf := fetchBuf[worker]
				idx := i*blocksPerStrip + strip
				nb, err := sp.readSegment(idx, buf)
				if err != nil {
					p.met.corrupt.Inc()
					return err
				}
				p.met.segsRead.Inc()
				p.met.onRead(sp.segOff(idx), nb, p.met.rowsReadBytes)
				for c := 0; c < s2; c++ {
					colBase := i * s2
					for r := 0; r < s1; r++ {
						tile[r*n2+colBase+c] = buf[c*s1+r]
					}
				}
				return nil
			})
		},
		compute: func(ctx context.Context, strip int, tile []complex128) error {
			host.Do(p.cfg.workers, s1, func(lo, hi int) {
				for r := lo; r < hi && ctx.Err() == nil; r++ {
					v := tile[r*n2 : (r+1)*n2]
					p.fs.Rows(v)
					if inverse {
						for k, x := range v {
							v[k] = complex(real(x)*inv, -imag(x)*inv)
						}
					}
				}
			})
			return ctx.Err()
		},
		drain: func(ctx context.Context, strip int, tile []complex128) error {
			base := int64(strip) * int64(s1)
			return parallelIdx(ctx, iow, n2, nil, func(worker, k2 int) error {
				stage := scatterStage[worker]
				for r := 0; r < s1; r++ {
					stage[r] = tile[r*n2+k2]
				}
				off := int64(k2)*int64(n1) + base
				if err := dst.WriteVec(stage, off); err != nil {
					return err
				}
				p.met.onWrite(off*16, int64(s1)*16, p.met.rowsWriteBytes)
				return nil
			})
		},
	}
}
