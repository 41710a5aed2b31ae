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
//   - placement: every transform is split over the eligible workers in
//     member order, each taking an even share of the columns and rows;
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
	DefaultShardTimeout = 10 * time.Second

	// MaxClusterN bounds the distributed transform length to what a
	// session frame can name (the codec's element limit).
	MaxClusterN = serve.MaxFrameElems

	// The wait between session attempts starts at defaultBackoffBase and
	// doubles up to backoffMax.
	defaultBackoffBase = 5 * time.Millisecond
	backoffMax         = 250 * time.Millisecond
)

// Config is what a deployment sets on a Coordinator. The zero value is
// a local-only coordinator (every transform degrades to the host
// engine); every field has a default.
type Config struct {
	// Client carries the session frames and health probes to the
	// workers; nil means serve.DefaultClient. A client whose transport is
	// a Loopback reaches in-process workers.
	Client *http.Client
	// Workers is the static worker list. MemberFile optionally names a
	// membership file, polled every 2s — one worker address per line,
	// '#' comments and blank lines ignored — whose workers follow the
	// static ones; it can add and remove workers at runtime.
	Workers    []string
	MemberFile string
	// ProbeInterval enables active health probing of every worker; 0
	// disables it (circuits still react to call failures).
	ProbeInterval time.Duration

	// MaxAttempts bounds the session attempts per transform (first
	// attempt included).
	MaxAttempts int
	// ShardTimeout is the deadline of each session RPC.
	ShardTimeout time.Duration

	// In-package tests set these; zero means the default.
	n1               int           // the four-step's N1 (default fft.NearSquareFactor's)
	backoffBase      time.Duration // the first wait between session attempts
	filePoll         time.Duration // how often MemberFile is re-read
	circuitThreshold int           // failures that open a worker's circuit
	circuitOpenBase  time.Duration // first open window, doubling per trip
	circuitOpenMax   time.Duration // longest open window
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = DefaultShardTimeout
	}
	if c.Client == nil {
		c.Client = serve.DefaultClient
	}
	if c.backoffBase <= 0 {
		c.backoffBase = defaultBackoffBase
	}
	if c.filePoll <= 0 {
		c.filePoll = defaultFilePoll
	}
	if c.circuitThreshold <= 0 {
		c.circuitThreshold = defaultCircuitThreshold
	}
	if c.circuitOpenBase <= 0 {
		c.circuitOpenBase = defaultCircuitOpenBase
	}
	if c.circuitOpenMax <= 0 {
		c.circuitOpenMax = defaultCircuitOpenMax
	}
	return c
}

// Coordinator accepts transforms too large (or too numerous) for one
// node and fans them out four-step across the worker set. Safe for
// concurrent use; Close stops the membership loops.
type Coordinator struct {
	cfg     Config
	members *membership
	m       *distMetrics
}

// New builds a coordinator and starts its membership loops.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	c := &Coordinator{cfg: cfg, members: newMembership(cfg), m: newDistMetrics(reg)}
	reg.GaugeFunc("dist_workers_eligible", func() float64 {
		return float64(c.members.EligibleCount())
	})
	reg.GaugeFunc("dist_workers_total", func() float64 {
		return float64(len(c.members.list()))
	})
	return c
}

// Close stops the membership background loops.
func (c *Coordinator) Close() { c.members.Close() }

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *metrics.Registry { return c.m.reg }

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
	n1, n2 := fft.NearSquareFactor(len(data))
	if c.cfg.n1 > 0 {
		n1, n2 = c.cfg.n1, len(data)/c.cfg.n1
	}
	fs, err := fft.NewFourStep(n1, n2)
	if err != nil {
		return err
	}
	blamed := map[string]bool{}
	backoff := c.cfg.backoffBase
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		addrs := c.members.Pick(min(fs.N1, fs.N2), blamed)
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
			backoff = min(2*backoff, backoffMax)
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
