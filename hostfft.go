package codeletfft

import (
	"cmp"
	"context"
	"sync"

	"codeletfft/internal/cache"
	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

// Sentinel errors re-exported from the core package so callers can test
// failure modes with errors.Is without importing internal packages.
var (
	// ErrUnsupportedLength reports a transform length no planner accepts:
	// non-positive everywhere, odd or < 4 for the real-input path,
	// non-power-of-two for the 2-D path. Complex 1-D plans support every
	// n ≥ 1, so NewHostPlan only returns it for n < 1.
	ErrUnsupportedLength = fft.ErrUnsupportedLength
	// ErrLengthMismatch reports a buffer whose length does not match the
	// plan. Every method that takes one returns it (wrapped, naming the
	// buffer — and, in a batch, the row) before touching any element.
	ErrLengthMismatch = fft.ErrLengthMismatch
)

// Kernel selects the butterfly factorization a staged plan runs:
// KernelAuto (the default) is replaced, when the plan is built, by the
// kernel a fixed rule names for the length the kernel runs on
// (KernelSoARadix4 from 128 points up, KernelRadix4 below); the other
// values pin one factorization. All kernels compute the same DFT over
// the same staged decomposition — outputs of one plan are bitwise
// deterministic, the default plan's included, and outputs of different
// kernels agree to rounding. A default plan that NewHostPlan sends to
// the mixed-radix plan runs no kernel.
type Kernel = fft.Kernel

// Kernel values for WithKernel.
const (
	KernelAuto       = fft.KernelAuto
	KernelRadix2     = fft.KernelRadix2
	KernelRadix4     = fft.KernelRadix4
	KernelSplitRadix = fft.KernelSplitRadix
	KernelSoARadix2  = fft.KernelSoARadix2
	KernelSoARadix4  = fft.KernelSoARadix4
)

// Kernels lists the concrete (executable) kernels in a stable order.
func Kernels() []Kernel { return fft.ConcreteKernels() }

// ParseKernel maps kernel names ("auto", "radix2", "radix4",
// "splitradix", "soa2", "soa4"; case-insensitive, "split-radix",
// "soa-radix2", "soa-radix4" and plain "soa" accepted) to Kernel
// values — a -kernel flag's parser.
func ParseKernel(s string) (Kernel, error) { return fft.ParseKernel(s) }

// Acceleration names the SIMD codelet backend the SoA kernels
// (KernelSoARadix2, KernelSoARadix4) run on in this process:
// "avx2+fma", "neon", or "generic" when the binary was built with the
// noasm tag or the CPU lacks the features. The scalar kernels are
// unaffected by it, and so is KernelAuto: it resolves to the same kernel
// on every backend (the pure-Go SoA loops still beat the scalar kernels
// from 128 points up). With "avx2+fma", default plans of 8…2^20-point
// powers of two run the mixed-radix plan instead (NewHostPlan).
func Acceleration() string { return fft.SoAAccel() }

// Plan is the one interface every transform provider implements: host
// plans (NewHostPlan), cached host plans (CachedHostPlan), and the
// cluster client (cluster.New) alike. Methods transform in place.
//
// Every provider returns a wrong-length buffer as an error wrapping
// ErrLengthMismatch before touching any element; the cluster client and
// the out-of-core plan add transport and I/O failures. Code written
// against Plan handles the error and works unchanged against any of them.
//
// The Ctx variants check the context before starting; once a transform
// is running it completes (data is never left torn mid-transform).
// Providers with genuinely cancellable work (the cluster client) honor
// the context throughout.
type Plan interface {
	Transform(data []complex128) error
	Inverse(data []complex128) error
	TransformBatch(batch [][]complex128) error
	InverseBatch(batch [][]complex128) error
	TransformCtx(ctx context.Context, data []complex128) error
	InverseCtx(ctx context.Context, data []complex128) error
}

var _ Plan = (*HostPlan)(nil)

// hostOpts is the resolved option set for plan construction.
type hostOpts struct {
	workers   int
	threshold int
	observer  EngineObserver
	kern      Kernel
}

// EngineObserver receives execution telemetry from a plan's parallel
// engine: one ObserveBatch call per batched call (its occupancy and
// wall time) and one ObservePass call per pass the engine dispatches to
// its workers — every barrier-separated pass of a sharded transform
// (pack or bit-reversal, each butterfly stage or level sweep, the
// inverse path's conjugate/scale sweeps), or the single pass of a batch
// dealt out whole. Serial runs report no passes. Implementations must
// be cheap and safe for concurrent use; the serving daemon backs one
// with atomic histogram instruments.
type EngineObserver = host.Observer

// HostOption configures NewHostPlan, NewHostPlan2D, NewRealPlan, and
// their Cached variants.
type HostOption func(hostOpts) hostOpts

// WithWorkers sets the most ways a Transform, TransformBatch and
// friends split a call over the process's worker pool: 1 keeps every
// call on the caller's goroutine, 0 (the default) means GOMAXPROCS. The
// pool has GOMAXPROCS workers whatever any plan asks for — a larger
// value only cuts the work finer — and the output is bitwise identical
// for every value.
func WithWorkers(n int) HostOption {
	return func(o hostOpts) hostOpts { o.workers = n; return o }
}

// WithObserver attaches an EngineObserver to the plan's parallel
// engine, so the batch and parallel paths report occupancy and
// per-pass latency instead of being measured from outside.
func WithObserver(obs EngineObserver) HostOption {
	return func(o hostOpts) hostOpts { o.observer = obs; return o }
}

// WithKernel pins the butterfly kernel (KernelRadix2, KernelRadix4,
// KernelSplitRadix, KernelSoARadix2, KernelSoARadix4): a power of two
// then runs the staged decomposition with that kernel. KernelAuto, the
// default, is the same as pinning the kernel the rule names for the
// plan's length (see Kernel): the two build the same plan and, cached,
// share one cache entry — unless the default plan is the mixed-radix
// one (NewHostPlan). Other lengths run per-radix codelets, not a
// kernel, and ignore it.
func WithKernel(k Kernel) HostOption {
	return func(o hostOpts) hostOpts { o.kern = k; return o }
}

// resolveOpts applies opts for an n-point plan and settles its kernel
// before a cache key is formed or a core built. Only a staged power of
// two runs a kernel: a pinned one, or KernelAuto resolved by the rule
// where fft.MixedPow2 keeps the default staged. Every other plan runs
// per-radix codelets, so its kernel stays KernelAuto — a moved default
// power of two, and any other length pinned or not, whose plans build,
// and cached share, one core that names the kernel it reports.
func resolveOpts(n int, opts []HostOption) hostOpts {
	var o hostOpts
	for _, opt := range opts {
		o = opt(o)
	}
	switch {
	case fft.Log2(n) < 1, o.kern == KernelAuto && fft.MixedPow2(n):
		o.kern = KernelAuto
	case o.kern == KernelAuto:
		o.kern = fft.AutoKernel(n)
	}
	return o
}

// engine builds the engine the resolved options describe — a view of
// the process's worker pool, free to build per plan.
func (o hostOpts) engine() host.Engine {
	return host.Make(host.Config{Workers: o.workers, Threshold: o.threshold, Observer: o.observer})
}

// hostCore is the immutable, shareable part of a plan: what the length
// routed to, reduced to its name and its two schedules under the
// kernel resolved at construction — for a family that runs no kernel,
// the rule's answer for the length its stages run on. CachedHostPlan
// hands the same core to many HostPlans; only the engine differs per
// plan.
type hostCore struct {
	n        int
	algo     string // Algorithm()
	kern     Kernel // Kernel()
	fwd, inv *fft.Schedule
}

// newHostCore routes a length to its planner, on the kernel resolveOpts
// left: a power of two with a kernel gets the staged decomposition with
// P = min(64, n) — the paper's codelet clamped to the length, the rule
// the four-step and Bluestein plans apply to their sub-transforms —
// lengths factoring over {2,3,5,7}, a default power of two that
// fft.MixedPow2 moves among them, get the mixed-radix plan, and
// everything else ≥ 1 gets the Bluestein fallback. Only n < 1 and n
// whose Bluestein convolution length would overflow an int fail.
func newHostCore(n int, o hostOpts) (*hostCore, error) {
	c := &hostCore{n: n, kern: o.kern}
	if o.kern != KernelAuto {
		pl, err := fft.NewPlan(n, min(64, n))
		if err != nil {
			return nil, err
		}
		w := fft.Twiddles(n)
		c.algo = "staged"
		c.fwd, c.inv = pl.Schedule(w, o.kern, false), pl.Schedule(w, o.kern, true)
		return c, nil
	}
	mp, err := fft.NewMixedPlan(n)
	if err == nil {
		c.algo, c.kern, c.fwd, c.inv = mp.String(), fft.AutoKernel(n), mp.Schedule(false), mp.Schedule(true)
		return c, nil
	}
	if n < 1 {
		return nil, err
	}
	bp, err := fft.NewBluesteinPlan(n)
	if err != nil {
		return nil, err
	}
	c.algo, c.kern, c.fwd, c.inv = bp.String(), fft.AutoKernel(bp.M), bp.Schedule(false), bp.Schedule(true)
	return c, nil
}

// planKey identifies a cached core by the transform length and the
// kernel resolveOpts left: resolved for a staged power of two, so a
// default plan and one pinned to the kernel the rule names are the same
// entry, and KernelAuto for a plan that runs none — a moved default
// power of two, apart from its pinned plans, and every other length,
// whose one core serves every pin. Keys compare by value, so n alone
// keeps a length's family apart from every other length's.
type planKey struct {
	n    int
	kern Kernel
}

func planKeyHash(k planKey) uint64 {
	h := uint64(k.n)*0x9e3779b97f4a7c15 ^ uint64(k.kern)*0xff51afd7ed558ccd
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	return h ^ h>>32
}

// planCache memoizes plan cores across CachedHostPlan calls. 8 shards ×
// 16 entries bounds it at 128 cores; serving workloads use a handful of
// sizes, so eviction is rare in practice.
var planCache = cache.New[planKey, *hostCore](8, 16, planKeyHash)

// realCore is the shareable part of a RealPlan: the split-pass tables
// and the pool of packed buffers the inverse works in.
type realCore struct {
	*fft.RealSplit
	work sync.Pool // *[]complex128 of length N/2
}

func newRealCore(n int) (*realCore, error) {
	split, err := fft.NewRealSplit(n)
	if err != nil {
		return nil, err
	}
	c := &realCore{RealSplit: split}
	c.work.New = func() any {
		w := make([]complex128, n/2)
		return &w
	}
	return c, nil
}

// realCache memoizes real cores across CachedRealPlan calls, bounded
// the same way as planCache.
var realCache = cache.New[planKey, *realCore](8, 16, planKeyHash)

// PlanCacheLen reports how many plan cores CachedHostPlan currently
// retains — an observability hook for serving systems.
func PlanCacheLen() int { return planCache.Len() }

// PlanCacheStats reports the plan cache's lifetime hit and miss counts
// — the companion observability hook to PlanCacheLen. A CachedHostPlan
// call that reuses (or joins the single-flight construction of) a core
// counts as a hit; one that starts construction counts as a miss.
func PlanCacheStats() (hits, misses int64) { return planCache.Stats() }

// HostPlan exposes the staged FFT decomposition for direct numeric use on
// the host, without the machine simulation: the same kernels the
// simulated codelets execute, callable as a plain FFT library.
//
// A HostPlan is immutable after construction, so one plan may serve
// concurrent Transform or TransformBatch calls on distinct data arrays.
// Transform runs on the plan's parallel engine — sharded across workers
// above the threshold, serial below it, bitwise identical either way.
type HostPlan struct {
	core *hostCore
	eng  host.Engine
}

// NewHostPlan builds a host-side plan for n-point transforms, any
// n ≥ 1. Powers of two run the staged decomposition (64-point kernels,
// clamped to n) — but where the mixed stages' vector codelets run
// (amd64 with AVX2 and FMA) a default plan of 8 to 2^20 points runs the
// faster mixed-radix schedule (fft.MixedPow2). Other lengths factoring
// over {2, 3, 5, 7} run the mixed-radix Stockham schedule (WithKernel is
// ignored); and lengths with larger prime factors run the Bluestein
// chirp-z plan, whose embedded convolution runs the mixed-radix stages
// on a {2, 3, 5}-smooth length near 2n (WithKernel is ignored). All
// paths use a GOMAXPROCS parallel engine by default:
//
//	p, err := codeletfft.NewHostPlan(1<<20, codeletfft.WithWorkers(8))
func NewHostPlan(n int, opts ...HostOption) (*HostPlan, error) {
	o := resolveOpts(n, opts)
	core, err := newHostCore(n, o)
	if err != nil {
		return nil, err
	}
	return &HostPlan{core: core, eng: o.engine()}, nil
}

// CachedHostPlan is NewHostPlan backed by a process-wide, size-bounded,
// concurrency-safe plan cache keyed by (n, kernel). Repeated calls for
// one shape share the stage decomposition, twiddle table and schedules
// — concurrent first calls run plan construction once (single-flight)
// — so serving code can call it per request instead of hand-managing
// plan lifetimes: a hit is the cache lookup plus one small struct. The
// engine options (WithWorkers, WithObserver) are still applied per
// returned plan.
func CachedHostPlan(n int, opts ...HostOption) (*HostPlan, error) {
	o := resolveOpts(n, opts)
	core, err := planCache.GetOrCreate(planKey{n: n, kern: o.kern}, func() (*hostCore, error) {
		return newHostCore(n, o)
	})
	if err != nil {
		return nil, err
	}
	return &HostPlan{core: core, eng: o.engine()}, nil
}

// N returns the transform length.
func (h *HostPlan) N() int { return h.core.n }

// Algorithm names the decomposition the length routed to: "staged" for
// a staged power of two, "mixed-radix[…]" with the radix schedule (a
// moved power of two: "mixed-radix[4 4 4 4 4]" for 1024), or
// "bluestein[M=… mixed-radix[…]]" with the embedded convolution's
// length and schedule.
func (h *HostPlan) Algorithm() string { return h.core.algo }

// Workers returns the worker count the parallel engine resolved.
func (h *HostPlan) Workers() int { return h.eng.Workers() }

// Kernel returns the concrete kernel this plan runs: the one WithKernel
// pinned, else the rule's answer for this length — for a Bluestein
// plan, for its convolution length. Mixed-radix and Bluestein plans run
// no kernel; they report the rule's answer for that length whatever was
// pinned, a default power of two on the mixed-radix plan too.
func (h *HostPlan) Kernel() Kernel { return h.core.kern }

// Transform applies the forward FFT in place on the plan's parallel
// engine (serial below the threshold; bitwise identical either way).
// len(data) must equal N; a mismatch is returned as an error wrapping
// ErrLengthMismatch, with data untouched.
func (h *HostPlan) Transform(data []complex128) error {
	return h.eng.Run(h.core.fwd, data)
}

// Inverse applies the inverse FFT in place. See Transform for the
// error contract.
func (h *HostPlan) Inverse(data []complex128) error {
	return h.eng.Run(h.core.inv, data)
}

// TransformCtx is Transform with a pre-flight context check: a done
// context returns its error without touching data; once the transform
// starts it runs to completion (in-place data is never left torn).
func (h *HostPlan) TransformCtx(ctx context.Context, data []complex128) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.Transform(data)
}

// InverseCtx is Inverse with a pre-flight context check.
func (h *HostPlan) InverseCtx(ctx context.Context, data []complex128) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.Inverse(data)
}

// TransformBatch applies the forward FFT in place to every transform in
// batch. A batch with at least as many rows as the engine has workers
// is dealt out whole — workers steal complete transforms, so B
// transforms cost no pass barrier at all; a smaller one runs its rows
// one after another on the parallel engine. Every slice must have
// length N; a bad row is returned as an error wrapping
// ErrLengthMismatch that names the row's batch index, before any row is
// touched. Output is bitwise identical to calling Transform in a loop,
// and the steady-state path performs no allocation.
func (h *HostPlan) TransformBatch(batch [][]complex128) error {
	return h.eng.RunBatch(h.core.fwd, batch)
}

// InverseBatch applies the inverse FFT in place to every transform in
// batch. Output is bitwise identical to calling Inverse in a loop.
func (h *HostPlan) InverseBatch(batch [][]complex128) error {
	return h.eng.RunBatch(h.core.inv, batch)
}

// RealPlan transforms length-N real signals through the packed
// N/2-point complex path on a parallel engine. Any even n ≥ 4 is
// accepted: the O(N) split pass (fft.RealSplit) does not care how the
// half transform is computed, so the plan is that pass around an
// N/2-point HostPlan of whatever family N/2 routes to. It is built with
// the same HostOption set as HostPlan (workers, observer, kernel); its
// kernel is the half plan's.
//
// A RealPlan is immutable after construction and safe for concurrent
// use on distinct buffers.
type RealPlan struct {
	core *realCore
	half *HostPlan
}

// plan assembles the plan around the core and the N/2-point half plan
// newHalf builds (NewHostPlan, or CachedHostPlan to share it through
// the plan cache).
func (c *realCore) plan(newHalf func(int, ...HostOption) (*HostPlan, error), opts []HostOption) (*RealPlan, error) {
	half, err := newHalf(c.N/2, opts...)
	if err != nil {
		return nil, err
	}
	return &RealPlan{core: c, half: half}, nil
}

// NewRealPlan builds a real-input plan for n-point transforms, any even
// n ≥ 4.
func NewRealPlan(n int, opts ...HostOption) (*RealPlan, error) {
	core, err := newRealCore(n)
	if err != nil {
		return nil, err
	}
	return core.plan(NewHostPlan, opts)
}

// CachedRealPlan is NewRealPlan backed by a process-wide cache keyed by
// n, sharing the split tables and the inverse's work buffers across
// calls the way CachedHostPlan shares cores, and the N/2-point half
// core through the plan cache.
func CachedRealPlan(n int, opts ...HostOption) (*RealPlan, error) {
	core, err := realCache.GetOrCreate(planKey{n: n}, func() (*realCore, error) {
		return newRealCore(n)
	})
	if err != nil {
		return nil, err
	}
	return core.plan(CachedHostPlan, opts)
}

// N returns the real-input length.
func (r *RealPlan) N() int { return r.core.N }

// SpectrumLen returns N/2+1, the half-spectrum buffer length Transform
// fills and Inverse consumes.
func (r *RealPlan) SpectrumLen() int { return r.core.SpectrumLen() }

// Algorithm names the path the length routed to: "real+" followed by
// the half plan's algorithm ("staged" for a staged power of two,
// otherwise the mixed-radix schedule or Bluestein embedding).
func (r *RealPlan) Algorithm() string { return "real+" + r.half.Algorithm() }

// Workers returns the worker count the parallel engine resolved.
func (r *RealPlan) Workers() int { return r.half.Workers() }

// Kernel returns the concrete kernel this plan runs — the packed
// N/2-point half transform's, so under KernelAuto the rule's answer for
// N/2.
func (r *RealPlan) Kernel() Kernel { return r.half.Kernel() }

// Transform computes the half-spectrum of the length-N real signal x
// into spec (length SpectrumLen). x is not modified; a wrong-length
// buffer is returned as an error wrapping ErrLengthMismatch, with both
// untouched.
func (r *RealPlan) Transform(spec []complex128, x []float64) error {
	if err := r.check(spec, x); err != nil {
		return err
	}
	r.core.Pack(spec, x)
	if err := r.half.Transform(spec[:r.core.N/2]); err != nil {
		return err
	}
	r.core.Unpack(spec)
	return nil
}

// Inverse recovers the length-N real signal x from its half-spectrum
// spec, inverting Transform. spec is not modified; wrong-length buffers
// are returned as Transform's are, before any work.
func (r *RealPlan) Inverse(x []float64, spec []complex128) error {
	if err := r.check(spec, x); err != nil {
		return err
	}
	w := r.core.work.Get().(*[]complex128)
	defer r.core.work.Put(w)
	r.core.PreInverse(*w, spec)
	if err := r.half.Inverse(*w); err != nil {
		return err
	}
	r.core.PostInverse(x, *w)
	return nil
}

// check validates both of a call's buffers at the entry; the split
// passes check none.
func (r *RealPlan) check(spec []complex128, x []float64) error {
	if len(x) != r.core.N {
		return fft.LengthError("real signal", len(x), r.core.N)
	}
	if len(spec) != r.core.SpectrumLen() {
		return fft.LengthError("half-spectrum", len(spec), r.core.SpectrumLen())
	}
	return nil
}

// TransformCtx is Transform with a pre-flight context check.
func (r *RealPlan) TransformCtx(ctx context.Context, spec []complex128, x []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.Transform(spec, x)
}

// InverseCtx is Inverse with a pre-flight context check.
func (r *RealPlan) InverseCtx(ctx context.Context, x []float64, spec []complex128) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.Inverse(x, spec)
}

// HostPlan2D is the 2-D row-column analogue of HostPlan. Transform and
// Inverse run on the plan's parallel engine with the plan's kernel.
type HostPlan2D struct {
	core *hostCore
	eng  host.Engine
}

// NewHostPlan2D builds a host-side plan for rows×cols transforms. It
// accepts the same functional options as NewHostPlan; both passes run
// min(64, rows, cols)-point kernels.
func NewHostPlan2D(rows, cols int, opts ...HostOption) (*HostPlan2D, error) {
	// KernelAuto resolves on the row transform's length (the hotter of
	// the two passes); a 2-D plan is staged at every length.
	o := resolveOpts(cols, opts)
	pl, err := fft.NewPlan2D(rows, cols, min(64, rows, cols))
	if err != nil {
		return nil, err
	}
	k := cmp.Or(o.kern, fft.AutoKernel(cols))
	core := &hostCore{kern: k, fwd: pl.Schedule(k, false), inv: pl.Schedule(k, true)}
	return &HostPlan2D{core: core, eng: o.engine()}, nil
}

// Workers returns the worker count the parallel engine resolved.
func (h *HostPlan2D) Workers() int { return h.eng.Workers() }

// Kernel returns the concrete kernel this plan runs: the one WithKernel
// pinned, else the rule's answer for the row length.
func (h *HostPlan2D) Kernel() Kernel { return h.core.kern }

// Transform applies the forward 2-D FFT in place (row-major data) on
// the plan's parallel engine: rows sharded across workers, then
// columns. Wrong-length data is returned, untouched, as an error
// wrapping ErrLengthMismatch.
func (h *HostPlan2D) Transform(data []complex128) error {
	return h.eng.Run(h.core.fwd, data)
}

// Inverse applies the inverse 2-D FFT in place.
func (h *HostPlan2D) Inverse(data []complex128) error {
	return h.eng.Run(h.core.inv, data)
}

// DFT computes the discrete Fourier transform directly in O(n²) — the
// ground-truth reference (any length).
func DFT(x []complex128) []complex128 { return fft.DFT(x) }
