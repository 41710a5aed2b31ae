// Package dist shards large FFTs across a cluster of worker daemons —
// the cluster-scale analogue of the paper's memory-load balancing: just
// as the simulated machine spreads butterfly traffic over 4 DRAM banks
// so no port saturates, the coordinator spreads transform work over
// worker nodes so no single daemon's memory or queue becomes the
// bottleneck.
//
// A transform of length N = N1·N2 is factored four-step
// (internal/fft.FourStepPlan) and runs as one resident session over
// workers running `fftserved -worker` (session.go): each worker gets
// its column slab once, the workers exchange the transpose among
// themselves, and each returns its finished row block once. The package
// owns every cluster concern end to end:
//
//   - membership: static worker lists plus a file-watched set, active
//     health probing, and a per-worker circuit breaker (membership.go);
//   - placement: consistent hashing of the transform shape so a shape
//     keeps landing on the same workers and their plan caches stay warm
//     (ring.go);
//   - partial failure: a deadline on every session RPC, and a failed
//     session abandoned and retried, after a backoff, on the workers
//     not blamed for the failure;
//   - degradation: when the worker set is empty or exhausted the
//     transform runs locally on the host engine, so clients never see a
//     cluster-induced failure;
//   - observability: per-worker RPC latency and error instruments plus
//     cluster-wide retry/degradation counters on a metrics.Registry
//     (metrics.go).
//
// Every hop goes through one HTTP client (transport.go); the Loopback
// round tripper under it runs a whole cluster in one process, so all of
// the above is exercised by `go test -race` with no sockets.
package dist

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"codeletfft"
	"codeletfft/internal/fft"
	"codeletfft/internal/metrics"
	"codeletfft/internal/serve"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxAttempts  = 3
	DefaultBackoffBase  = 5 * time.Millisecond
	DefaultBackoffMax   = 250 * time.Millisecond
	DefaultShardTimeout = 10 * time.Second

	// MaxClusterN bounds the distributed transform length to what a
	// session frame can name (the codec's element limit).
	MaxClusterN = serve.MaxFrameElems
)

// Config tunes a Coordinator. The zero value is a local-only
// coordinator (every transform degrades to the host engine); every
// field has a default.
type Config struct {
	// Client carries the session frames and health probes to the
	// workers; nil means serve.DefaultClient. A client whose transport is
	// a Loopback reaches in-process workers.
	Client *http.Client
	// Workers is the static worker set; MemberFile optionally names a
	// polled membership file layered on top (see MemberConfig.File).
	Workers    []string
	MemberFile string
	// ProbeInterval enables active health probing of every worker; 0
	// disables it (circuits still react to call failures).
	ProbeInterval time.Duration
	// FilePollInterval is how often MemberFile is re-read (default 2s).
	FilePollInterval time.Duration

	// MaxAttempts bounds the session attempts per transform (first
	// attempt included).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential wait between
	// attempts.
	BackoffBase, BackoffMax time.Duration
	// ShardTimeout is the deadline of each session RPC.
	ShardTimeout time.Duration

	// Factor picks the four-step split for a given N; nil means the
	// near-square power-of-two split.
	Factor func(n int) (n1, n2 int)

	// Circuit-breaker knobs, forwarded to the membership layer.
	CircuitThreshold int
	CircuitOpenBase  time.Duration
	CircuitOpenMax   time.Duration

	// Registry collects the coordinator's instruments; the constructor
	// creates one when nil.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = DefaultShardTimeout
	}
	if c.Client == nil {
		c.Client = serve.DefaultClient
	}
	if c.Factor == nil {
		c.Factor = NearSquareFactor
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// NearSquareFactor splits a power-of-two n into the most balanced
// power-of-two pair n1 ≤ n2 — the default four-step shape, minimizing
// the longer of the two sub-FFT lengths.
func NearSquareFactor(n int) (n1, n2 int) {
	logN := fft.Log2(n)
	l1 := logN / 2
	return 1 << l1, 1 << (logN - l1)
}

// Coordinator accepts transforms too large (or too numerous) for one
// node and fans them out four-step across the worker set. Safe for
// concurrent use; Close stops the membership loops.
type Coordinator struct {
	cfg     Config
	members *Membership
	m       *distMetrics
}

// New builds a coordinator and starts its membership loops.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	members := NewMembership(MemberConfig{
		Client:           cfg.Client,
		Static:           cfg.Workers,
		File:             cfg.MemberFile,
		FilePollInterval: cfg.FilePollInterval,
		ProbeInterval:    cfg.ProbeInterval,
		CircuitThreshold: cfg.CircuitThreshold,
		OpenBase:         cfg.CircuitOpenBase,
		OpenMax:          cfg.CircuitOpenMax,
	})
	members.Start()
	c := &Coordinator{
		cfg:     cfg,
		members: members,
		m:       newDistMetrics(cfg.Registry),
	}
	cfg.Registry.GaugeFunc("dist_workers_eligible", func() float64 {
		return float64(c.members.EligibleCount())
	})
	cfg.Registry.GaugeFunc("dist_workers_total", func() float64 {
		return float64(len(c.members.Addrs()))
	})
	return c
}

// Close stops the membership background loops.
func (c *Coordinator) Close() { c.members.Close() }

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *metrics.Registry { return c.cfg.Registry }

// Members returns the membership layer (health state, worker set).
func (c *Coordinator) Members() *Membership { return c.members }

// checkN validates a cluster transform length.
func checkN(n int) error {
	if fft.Log2(n) < 2 {
		return fmt.Errorf("%w: cluster transforms need N a power of two ≥ 4, got %d", fft.ErrUnsupportedLength, n)
	}
	if n > MaxClusterN {
		return fmt.Errorf("%w: N=%d exceeds the %d-element session frame limit", fft.ErrUnsupportedLength, n, MaxClusterN)
	}
	return nil
}

// Transform applies the forward FFT to data in place: up to MaxAttempts
// resident sessions (session.go), each on the eligible workers no
// earlier attempt of this transform blamed, and the host engine once
// nobody is left. data is written only by an attempt that completed, so
// a failed or cancelled one leaves it as it was. The output matches the
// single-node transform within floating-point tolerance (the four-step
// ordering differs from the direct staged algorithm).
func (c *Coordinator) Transform(ctx context.Context, data []complex128) error {
	return c.transform(ctx, data, false)
}

// Inverse applies the inverse FFT in place via the conjugation
// identity, under Transform's contract: the identity's two sweeps ride
// on the session's two transpositions (and on the local schedule's pack
// and unpack), so no attempt writes data before it has the result.
func (c *Coordinator) Inverse(ctx context.Context, data []complex128) error {
	return c.transform(ctx, data, true)
}

// transform is Transform, or Inverse when inverse is set.
func (c *Coordinator) transform(ctx context.Context, data []complex128, inverse bool) error {
	if err := checkN(len(data)); err != nil {
		return err
	}
	start := time.Now()
	defer func() { c.m.transformSec.Observe(time.Since(start).Seconds()) }()
	c.m.transforms.Inc()

	if c.members.EligibleCount() == 0 {
		c.m.degraded.Inc()
		return c.transformLocal(data, inverse)
	}
	fs, err := c.fourStepFor(len(data))
	if err != nil {
		return err
	}
	blamed := map[string]bool{}
	backoff := c.cfg.BackoffBase
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		addrs := c.members.Successors(residentKey(fs.N1, fs.N2), min(fs.N1, fs.N2), blamed)
		if len(addrs) == 0 {
			break
		}
		if attempt > 0 {
			c.m.retries.Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff = min(2*backoff, c.cfg.BackoffMax)
		}
		if c.runSession(ctx, fs, addrs, data, inverse, blamed) {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	c.m.residentFall.Inc()
	c.m.degraded.Inc()
	return c.transformLocal(data, inverse)
}

// transformLocal is the degraded path: the whole transform on the
// facade's cached default plan, data untouched unless the plan exists.
func (c *Coordinator) transformLocal(data []complex128, inverse bool) error {
	p, err := codeletfft.CachedHostPlan(len(data))
	if err != nil {
		return err
	}
	if inverse {
		return p.Inverse(data)
	}
	return p.Transform(data)
}

// fourStepFor builds the plan of n's split; its tables are shared
// process-wide, so building one per transform costs an allocation.
func (c *Coordinator) fourStepFor(n int) (*fft.FourStepPlan, error) {
	n1, n2 := c.cfg.Factor(n)
	if n1*n2 != n {
		return nil, fmt.Errorf("dist: factorization %d×%d does not cover N=%d", n1, n2, n)
	}
	return fft.NewFourStep(n1, n2)
}
