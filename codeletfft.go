// Package codeletfft reproduces "Towards Memory-Load Balanced Fast
// Fourier Transformations in Fine-grain Execution Models" (Chen, Wu,
// Zuckerman, Gao — IPDPS Workshops 2013): a codelet-model FFT on a
// simulated IBM Cyclops-64 whose execution order is scheduled to balance
// the load on the four off-chip DRAM banks.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/sim      discrete-event engine
//   - internal/c64      Cyclops-64 machine model (ports, interleave, TUs)
//   - internal/codelet  codelet runtime (pools, counters, barriers)
//   - internal/fft      FFT math (plans, kernels, reference transforms)
//   - internal/host     parallel host execution engine (worker pool)
//   - internal/cache    sharded LRU cache behind CachedHostPlan
//   - internal/core     the paper's five algorithm variants
//   - internal/exp      one runner per figure/table of the evaluation
//
// Quick start:
//
//	opts := codeletfft.NewOptions(1<<15, codeletfft.FineGuided)
//	opts.Check = true
//	res, err := codeletfft.Run(opts)
//	// res.GFLOPS, res.BankSkew(), res.Output ...
//
// The staged kernels are also a plain host FFT library, fronted by one
// interface: Plan. Every provider — a host plan, a cached host plan,
// the cluster client — implements the same six methods (Transform,
// Inverse, TransformBatch, InverseBatch, and the context-aware
// TransformCtx/InverseCtx), so code written against Plan moves between
// single-node and sharded execution unchanged:
//
//	one-shot   h, _ := codeletfft.NewHostPlan(1<<20)          h.Transform(data)
//	batched    h, _ := codeletfft.NewHostPlan(n)              h.TransformBatch(batch)
//	real       r, _ := codeletfft.NewRealPlan(n)              r.Transform(spec, x)
//	cached     h, _ := codeletfft.CachedHostPlan(n)           h.Transform(data)
//	cluster    cl, _ := cluster.New(cluster.Config{...})      cl.TransformCtx(ctx, data)
//
// Plans are built with functional options; every knob has a default:
//
//	h, err := codeletfft.NewHostPlan(1<<20,
//	    codeletfft.WithTaskSize(64),      // P-point kernels (default 64)
//	    codeletfft.WithWorkers(8),        // default GOMAXPROCS
//	    codeletfft.WithThreshold(1<<13),  // serial below this size
//	    codeletfft.WithKernel(codeletfft.KernelAuto)) // the default: soa4 from 128 points, radix4 below
//
// Five butterfly kernels run on the same staged decomposition: radix-2
// (the paper's formulation), radix-4 (three-multiply butterflies),
// split-radix (the lowest multiplication count), and radix-2 and
// radix-4 on split real/imaginary planes with SIMD codelets. WithKernel
// pins one; KernelAuto — the default — is a fixed rule on the length
// the kernel runs on, applied when the plan is built, so the default
// plan is as reproducible as a pinned one. For a fixed plan and kernel,
// serial, parallel, and batched execution are bitwise identical;
// different kernels agree to rounding (about 1e-9 relative error at
// N=2^12).
//
// Serving workloads lean on the same engine: TransformBatch pushes many
// same-size transforms through one worker-pool dispatch with zero
// steady-state allocation; RealPlan handles real-valued signals of any
// even length via a packed N/2-point transform at about twice the
// complex path's speed; ConvPlan and STFTPlan run overlap-save
// convolution and streaming spectrograms on the batched engine;
// CachedHostPlan and CachedRealPlan memoize plans in process-wide,
// sharded, size-bounded caches keyed by (N, task size, kernel) so plans
// can be resolved per request.
//
// Construction errors wrap the sentinels ErrUnsupportedLength and
// ErrBadTaskSize; wrong-length slices panic with an error wrapping
// ErrLengthMismatch (for batches, the error names the offending row's
// index). Host plans always return a nil error from Plan methods —
// the error return exists for transport-backed providers like the
// cluster client. The engine is hardened by fuzz targets (internal/fft:
// FuzzTransformRoundTrip, FuzzParallelMatchesSerial, FuzzRealRoundTrip,
// FuzzKernelParity), a metamorphic property suite (linearity, Parseval,
// impulse and shift theorems over every plan shape), a cross-kernel
// parity suite (every kernel vs the reference DFT at every size),
// allocation guards on the batched path, and a `go test -race` CI gate.
package codeletfft

import (
	"codeletfft/internal/c64"
	"codeletfft/internal/codelet"
	"codeletfft/internal/core"
)

// Re-exported configuration and result types.
type (
	// Options configures one simulated FFT execution.
	Options = core.Options
	// Result reports one simulated FFT execution.
	Result = core.Result
	// Variant selects one of the paper's algorithm versions.
	Variant = core.Variant
	// Order arranges the initial codelets in the ready pool.
	Order = core.Order
	// MachineConfig holds the Cyclops-64 model parameters.
	MachineConfig = c64.Config
	// Discipline selects the ready-pool service order.
	Discipline = codelet.Discipline
	// FineConfig names one (order, discipline) fine-grain combination.
	FineConfig = core.FineConfig
	// BestWorst holds the extremes of a fine-grain ensemble.
	BestWorst = core.BestWorst
)

// Algorithm versions (the paper's Table I).
const (
	Coarse     = core.Coarse
	CoarseHash = core.CoarseHash
	Fine       = core.Fine
	FineHash   = core.FineHash
	FineGuided = core.FineGuided
)

// Initial pool orders.
const (
	OrderNatural     = core.OrderNatural
	OrderReversed    = core.OrderReversed
	OrderBitReversed = core.OrderBitReversed
	OrderRandom      = core.OrderRandom
)

// Pool disciplines.
const (
	FIFO = codelet.FIFO
	LIFO = codelet.LIFO
)

// NewOptions returns paper-default options for an N-point transform.
func NewOptions(n int, v Variant) Options { return core.NewOptions(n, v) }

// DefaultMachine returns the published Cyclops-64 parameters.
func DefaultMachine() MachineConfig { return c64.Default() }

// Run simulates one FFT execution.
func Run(opts Options) (*Result, error) { return core.Run(opts) }

// RunFineBestWorst sweeps the plain fine-grain variant over an ensemble
// of initial orders and pool disciplines (nil = the default ensemble) and
// returns the fastest and slowest runs — the paper's "fine best" and
// "fine worst".
func RunFineBestWorst(base Options, configs []FineConfig) (*BestWorst, error) {
	return core.RunFineBestWorst(base, configs)
}

// TheoreticalPeakGFLOPS evaluates the paper's equations (1)-(4): the
// DRAM-bandwidth ceiling of a P-point-task FFT (10 GFLOPS for P=64).
func TheoreticalPeakGFLOPS(cfg MachineConfig, taskSize int) float64 {
	return core.TheoreticalPeakGFLOPS(cfg, taskSize)
}

// Variants lists all algorithm versions in presentation order.
func Variants() []Variant { return core.Variants() }

// Options2D configures a simulated 2-D (row-column) FFT; Result2D
// reports it. The column pass's stride-Cols accesses are a bank-balance
// stress case beyond the paper's 1-D evaluation.
type (
	Options2D = core.Options2D
	Result2D  = core.Result2D
)

// Run2D simulates a 2-D FFT: a fine-grain row pass, a barrier, and a
// fine-grain column pass.
func Run2D(opts Options2D) (*Result2D, error) { return core.Run2D(opts) }
