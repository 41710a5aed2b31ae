// Package cluster is the public face of the distributed FFT: a
// coordinator that factors large transforms four-step (N = N1·N2) and
// runs the column and row FFT passes as one resident session over
// worker daemons — every eligible worker, in member order, taking an
// even share — with health-checked membership, a failed session retried
// on the surviving workers, and graceful degradation to local execution.
//
// Workers are `fftserved -worker` processes; a Cluster built with New
// reaches them over HTTP. NewLoopback instead stands up an entire
// cluster — coordinator plus in-process workers — inside the calling
// process, which is how the examples and tests run without sockets:
//
//	cl, _ := cluster.NewLoopback(3, cluster.Config{})
//	defer cl.Close()
//	data := make([]complex128, 1<<16)
//	// ... fill data ...
//	_ = cl.TransformCtx(context.Background(), data)
//
// A Cluster implements codeletfft.Plan, so code written against that
// interface moves between a host plan and a cluster unchanged; the
// context-free methods run under context.Background(). The heavy
// lifting lives in internal/dist; this package pins the supported
// surface while the internals keep evolving.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"codeletfft"
	"codeletfft/internal/dist"
	"codeletfft/internal/serve"
)

// A Cluster is a codeletfft.Plan: the same interface the host plans
// implement, backed by the worker set instead of local goroutines.
var _ codeletfft.Plan = (*Cluster)(nil)

// Config tunes a Cluster. The zero value is usable: no workers means
// every transform runs locally (fully degraded but correct).
type Config struct {
	// Workers lists worker base URLs (e.g. "http://10.0.0.7:8080") for
	// New; NewLoopback ignores it and generates its own set.
	Workers []string
	// MemberFile, when non-empty, is a polled membership file — one
	// worker address per line, '#' comments — that can add and remove
	// workers at runtime; its workers follow Workers in member order.
	MemberFile string
	// ProbeInterval enables active health probing of every worker; 0
	// disables it (per-worker circuit breakers still react to call
	// failures).
	ProbeInterval time.Duration

	// MaxAttempts bounds the session attempts per transform, first
	// attempt included (default 3); each retry leaves out the worker the
	// failed attempt blamed.
	MaxAttempts int
	// ShardTimeout is the deadline of each session RPC (default 10s).
	ShardTimeout time.Duration
}

// Cluster distributes forward and inverse FFTs over a worker set. Safe
// for concurrent use; Close releases the membership loops (and, for
// loopback clusters, the in-process workers).
type Cluster struct {
	co *dist.Coordinator
}

// New connects to the configured workers over HTTP.
func New(cfg Config) (*Cluster, error) {
	return newCluster(cfg, nil), nil
}

// NewLoopback builds a self-contained cluster with nWorkers in-process
// workers — the full coordinator/worker protocol, including the
// worker-to-worker transpose exchange, through the same HTTP client as
// New, with a dist.Loopback under it instead of sockets.
func NewLoopback(nWorkers int, cfg Config) (*Cluster, error) {
	if nWorkers <= 0 {
		return nil, fmt.Errorf("cluster: need at least one loopback worker, got %d", nWorkers)
	}
	lb := dist.NewLoopback()
	client := &http.Client{Transport: lb}
	cfg.Workers = make([]string, nWorkers)
	// Split the process's worker pool (GOMAXPROCS workers, which a CPU
	// quota can set below NumCPU) between the in-process workers, so
	// each cuts its work for its share of it.
	perWorker := max(1, runtime.GOMAXPROCS(0)/nWorkers)
	for i := range cfg.Workers {
		cfg.Workers[i] = fmt.Sprintf("http://loopback-%d", i)
		srv := serve.New(serve.Config{
			EnableShard: true,
			MaxN:        dist.MaxClusterN,
			Workers:     perWorker,
			Client:      client,
		})
		lb.Register(cfg.Workers[i], srv.Handler())
	}
	return newCluster(cfg, client), nil
}

// newCluster starts a coordinator over cfg's workers, reached through
// client (nil: the pooled default).
func newCluster(cfg Config, client *http.Client) *Cluster {
	return &Cluster{co: dist.New(dist.Config{
		Client:        client,
		Workers:       cfg.Workers,
		MemberFile:    cfg.MemberFile,
		ProbeInterval: cfg.ProbeInterval,
		MaxAttempts:   cfg.MaxAttempts,
		ShardTimeout:  cfg.ShardTimeout,
	})}
}

// TransformCtx applies the forward FFT to data in place, honoring ctx
// throughout the session RPCs. len(data) must be a power of two ≥ 4.
// The output matches the single-node transform within floating-point
// tolerance.
func (c *Cluster) TransformCtx(ctx context.Context, data []complex128) error {
	return c.co.Transform(ctx, data)
}

// InverseCtx applies the inverse FFT in place, honoring ctx.
func (c *Cluster) InverseCtx(ctx context.Context, data []complex128) error {
	return c.co.Inverse(ctx, data)
}

// Transform is TransformCtx under context.Background().
func (c *Cluster) Transform(data []complex128) error {
	return c.co.Transform(context.Background(), data)
}

// Inverse is InverseCtx under context.Background().
func (c *Cluster) Inverse(data []complex128) error {
	return c.co.Inverse(context.Background(), data)
}

// TransformBatch applies the forward FFT to every row of batch. Rows
// are dispatched sequentially (each one already fans out across the
// worker set); a failed row aborts the batch with an error naming its
// batch index.
func (c *Cluster) TransformBatch(batch [][]complex128) error {
	for i, d := range batch {
		if err := c.co.Transform(context.Background(), d); err != nil {
			return fmt.Errorf("batch element %d: %w", i, err)
		}
	}
	return nil
}

// InverseBatch applies the inverse FFT to every row of batch; see
// TransformBatch.
func (c *Cluster) InverseBatch(batch [][]complex128) error {
	for i, d := range batch {
		if err := c.co.Inverse(context.Background(), d); err != nil {
			return fmt.Errorf("batch element %d: %w", i, err)
		}
	}
	return nil
}

// Close stops the cluster's background loops.
func (c *Cluster) Close() { c.co.Close() }

// Snapshot returns the coordinator's metrics — transform and RPC
// counts, retry/degradation counters, latency histograms — as a
// flat name → value map.
func (c *Cluster) Snapshot() map[string]float64 { return c.co.Registry().Snapshot() }

// MetricsText renders the coordinator's metrics in the same plain-text
// exposition format the daemons serve at /metrics.
func (c *Cluster) MetricsText() string {
	var b strings.Builder
	c.co.Registry().WriteText(&b)
	return b.String()
}
