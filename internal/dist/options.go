// Functional options for constructing a Coordinator — the cluster
// analogue of the facade's HostOption. The option form replaces the
// sprawling Config literal: zero-value fields no longer need naming,
// new knobs arrive without breaking construction sites, and invalid
// combinations are caught at the single New seam.
package dist

import (
	"time"

	"codeletfft/internal/metrics"
)

// Option configures a Coordinator under construction.
type Option func(*Config)

// New builds a coordinator from functional options and starts its
// membership loops. With no options it is a local-only coordinator
// (every transform degrades to the host engine); add WithTransport and
// WithWorkers to make it a cluster.
func New(opts ...Option) (*Coordinator, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return newCoordinator(cfg)
}

// WithTransport sets the transport that opens sessions on workers
// (required whenever workers are configured).
func WithTransport(t Transport) Option {
	return func(c *Config) { c.Transport = t }
}

// WithWorkers sets the static worker address list.
func WithWorkers(addrs ...string) Option {
	return func(c *Config) { c.Workers = append([]string(nil), addrs...) }
}

// WithMemberFile layers a polled membership file on the static set.
func WithMemberFile(path string) Option {
	return func(c *Config) { c.MemberFile = path }
}

// WithProbeInterval enables active health probing every d; 0 disables
// probing (circuits still react to call failures).
func WithProbeInterval(d time.Duration) Option {
	return func(c *Config) { c.ProbeInterval = d }
}

// WithFilePollInterval sets how often the membership file is re-read.
func WithFilePollInterval(d time.Duration) Option {
	return func(c *Config) { c.FilePollInterval = d }
}

// WithMaxAttempts bounds the session attempts per transform, first
// included.
func WithMaxAttempts(n int) Option {
	return func(c *Config) { c.MaxAttempts = n }
}

// WithBackoff shapes the exponential wait between attempts.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Config) { c.BackoffBase, c.BackoffMax = base, max }
}

// WithShardTimeout sets the deadline of each session RPC.
func WithShardTimeout(d time.Duration) Option {
	return func(c *Config) { c.ShardTimeout = d }
}

// WithFactor overrides the four-step split; nil keeps the near-square
// power-of-two default.
func WithFactor(f func(n int) (n1, n2 int)) Option {
	return func(c *Config) { c.Factor = f }
}

// WithCircuit tunes the per-worker circuit breaker: consecutive
// failures to open, and the open interval's base and cap.
func WithCircuit(threshold int, openBase, openMax time.Duration) Option {
	return func(c *Config) {
		c.CircuitThreshold = threshold
		c.CircuitOpenBase = openBase
		c.CircuitOpenMax = openMax
	}
}

// WithRegistry collects the coordinator's instruments on r instead of
// a fresh registry.
func WithRegistry(r *metrics.Registry) Option {
	return func(c *Config) { c.Registry = r }
}
