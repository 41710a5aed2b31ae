// Package dist shards large FFTs across a cluster of worker daemons —
// the cluster-scale analogue of the paper's memory-load balancing: just
// as the simulated machine spreads butterfly traffic over 4 DRAM banks
// so no port saturates, the coordinator spreads transform work over
// worker nodes so no single daemon's memory or queue becomes the
// bottleneck.
//
// A transform of length N = N1·N2 is factored four-step
// (internal/fft.FourStepPlan): the N2 column FFTs and N1 row FFTs fan
// out as shard frames (internal/serve codec) to workers running
// `fftserved -worker`, while the coordinator performs the cheap
// transposes locally. The package owns every cluster concern end to
// end:
//
//   - membership: static worker lists plus a file-watched set, active
//     health probing, and a per-worker circuit breaker (membership.go);
//   - placement: consistent hashing of shard keys so a worker
//     repeatedly sees the same shard shapes and its plan cache stays
//     warm (ring.go);
//   - partial failure: per-attempt deadlines, exponential backoff
//     retries that exclude the failed worker, and optional
//     tail-latency hedging — a second copy of a slow shard sent to the
//     next worker on the ring, first answer wins;
//   - degradation: when the worker set is empty or exhausted the
//     transform (or the single stranded shard) runs locally on the
//     host engine, so clients never see a cluster-induced failure;
//   - observability: per-worker RPC latency and error instruments plus
//     cluster-wide retry/hedge/degradation counters on a
//     metrics.Registry (metrics.go).
//
// The Loopback transport runs a whole cluster in one process, so all
// of the above is exercised by `go test -race` with no sockets.
package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
	"codeletfft/internal/metrics"
	"codeletfft/internal/serve"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultShardVecs    = 32
	DefaultMaxAttempts  = 3
	DefaultBackoffBase  = 5 * time.Millisecond
	DefaultBackoffMax   = 250 * time.Millisecond
	DefaultShardTimeout = 10 * time.Second
	DefaultMaxInflight  = 8

	// MaxClusterN bounds the distributed transform length to what a
	// shard frame can name (the codec's element limit).
	MaxClusterN = serve.MaxFrameElems
)

// Config tunes a Coordinator. Transport is required when any workers
// are configured; everything else has a default.
type Config struct {
	// Transport carries shard frames to workers (HTTPTransport against
	// real daemons, Loopback for in-process clusters).
	Transport Transport
	// Workers is the static worker set; MemberFile optionally names a
	// polled membership file layered on top (see MemberConfig.File).
	Workers    []string
	MemberFile string
	// ProbeInterval enables active health probing of every worker; 0
	// disables it (circuits still react to call failures).
	ProbeInterval time.Duration
	// FilePollInterval is how often MemberFile is re-read (default 2s).
	FilePollInterval time.Duration

	// ShardVecs is how many column/row vectors ride in one shard RPC.
	ShardVecs int
	// MaxAttempts bounds tries per shard (first attempt included).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential retry backoff.
	BackoffBase, BackoffMax time.Duration
	// HedgeDelay, when positive, sends a second copy of a shard to the
	// next worker on the ring if the first hasn't answered within the
	// delay; the first answer wins. 0 disables hedging.
	HedgeDelay time.Duration
	// ShardTimeout is the per-attempt deadline.
	ShardTimeout time.Duration
	// MaxInflight bounds concurrent shard RPCs per transform.
	MaxInflight int

	// Factor picks the four-step split for a given N; nil means the
	// near-square power-of-two split.
	Factor func(n int) (n1, n2 int)

	// LocalWorkers and LocalTaskSize configure the host engine used for
	// degraded (local) execution; 0 means the engine defaults.
	LocalWorkers, LocalTaskSize int
	// LocalKernel selects the butterfly kernel of degraded (local)
	// execution and locally run shards. The zero value (KernelAuto)
	// resolves to radix-2 at this layer — the coordinator never runs
	// tuning measurements on the request path.
	LocalKernel fft.Kernel

	// DisableResidentSessions turns off the communication-avoiding
	// resident-shard path even when the Transport supports it, forcing
	// every transform through the legacy one-shot frames. The zero
	// value (resident enabled) is correct for new deployments; the
	// fault-injection tests that assert exact one-shot counter
	// identities set it.
	DisableResidentSessions bool

	// Circuit-breaker knobs, forwarded to the membership layer.
	CircuitThreshold int
	CircuitOpenBase  time.Duration
	CircuitOpenMax   time.Duration

	// Registry collects the coordinator's instruments; the constructor
	// creates one when nil.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.ShardVecs <= 0 {
		c.ShardVecs = DefaultShardVecs
	}
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
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
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

// localPlan is the cached single-node execution state for one N.
type localPlan struct {
	pl *fft.Plan
	w  []complex128
}

// Coordinator accepts transforms too large (or too numerous) for one
// node and fans them out four-step across the worker set. Safe for
// concurrent use; Close stops the membership loops.
type Coordinator struct {
	cfg     Config
	members *Membership
	m       *distMetrics
	eng     *host.Engine

	// caps caches addresses that rejected a session open as
	// FFS1-only (addr → cache expiry).
	caps sync.Map

	mu     sync.Mutex
	fs     map[[2]int]*fft.FourStepPlan
	locals map[int]*localPlan
}

// newCoordinator builds a coordinator and starts its membership loops.
// The public constructor is New (functional options, options.go).
func newCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil && (len(cfg.Workers) > 0 || cfg.MemberFile != "") {
		return nil, fmt.Errorf("dist: workers configured but no transport")
	}
	members := NewMembership(MemberConfig{
		Transport:        cfg.Transport,
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
		eng:     host.New(host.Config{Workers: cfg.LocalWorkers}),
		fs:      map[[2]int]*fft.FourStepPlan{},
		locals:  map[int]*localPlan{},
	}
	cfg.Registry.GaugeFunc("dist_workers_eligible", func() float64 {
		return float64(c.members.EligibleCount())
	})
	cfg.Registry.GaugeFunc("dist_workers_total", func() float64 {
		return float64(len(c.members.Addrs()))
	})
	return c, nil
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
		return fmt.Errorf("dist: N=%d exceeds the %d-element shard frame limit", n, MaxClusterN)
	}
	return nil
}

// Transform applies the forward FFT to data in place. With eligible
// workers it runs the four-step cluster path; with none it degrades to
// local single-node execution. The output matches the single-node
// transform within floating-point tolerance (the column/row passes are
// bitwise identical to local four-step execution; only the N1/N2
// factored ordering differs from the direct staged algorithm).
func (c *Coordinator) Transform(ctx context.Context, data []complex128) error {
	if err := checkN(len(data)); err != nil {
		return err
	}
	start := time.Now()
	defer func() { c.m.transformSec.Observe(time.Since(start).Seconds()) }()
	c.m.transforms.Inc()

	if c.members.EligibleCount() == 0 {
		c.m.degraded.Inc()
		return c.transformLocal(data)
	}
	// Prefer the communication-avoiding resident path; any mid-session
	// failure falls back to the legacy one-shot path with the input
	// untouched (session.go).
	if st, ok := c.cfg.Transport.(SessionTransport); ok && !c.cfg.DisableResidentSessions {
		if handled, err := c.transformResident(ctx, st, data); handled {
			return err
		}
	}
	return c.transformDist(ctx, data)
}

// Inverse applies the inverse FFT in place via the conjugation
// identity, reusing the forward cluster path.
func (c *Coordinator) Inverse(ctx context.Context, data []complex128) error {
	for i, v := range data {
		data[i] = complex(real(v), -imag(v))
	}
	if err := c.Transform(ctx, data); err != nil {
		return err
	}
	inv := 1 / float64(len(data))
	for i, v := range data {
		data[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return nil
}

// transformLocal is the degraded path: the whole transform on the host
// engine, same numerics as a worker executing one giant shard.
func (c *Coordinator) transformLocal(data []complex128) error {
	lp, err := c.localPlanFor(len(data))
	if err != nil {
		return err
	}
	c.eng.TransformKernel(lp.pl, data, lp.w, c.cfg.LocalKernel)
	return nil
}

func (c *Coordinator) localPlanFor(n int) (*localPlan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lp, ok := c.locals[n]; ok {
		return lp, nil
	}
	p := c.cfg.LocalTaskSize
	if p <= 0 {
		p = min(64, n)
	}
	pl, err := fft.NewPlan(n, p)
	if err != nil {
		return nil, err
	}
	lp := &localPlan{pl: pl, w: fft.Twiddles(n)}
	c.locals[n] = lp
	return lp, nil
}

func (c *Coordinator) fourStepFor(n int) (*fft.FourStepPlan, error) {
	n1, n2 := c.cfg.Factor(n)
	if n1*n2 != n {
		return nil, fmt.Errorf("dist: factorization %d×%d does not cover N=%d", n1, n2, n)
	}
	key := [2]int{n1, n2}
	c.mu.Lock()
	defer c.mu.Unlock()
	if fs, ok := c.fs[key]; ok {
		return fs, nil
	}
	fs, err := fft.NewFourStep(n1, n2)
	if err != nil {
		return nil, err
	}
	c.fs[key] = fs
	return fs, nil
}

// transformDist runs the four-step decomposition with the two FFT
// passes dispatched to workers.
func (c *Coordinator) transformDist(ctx context.Context, data []complex128) error {
	fs, err := c.fourStepFor(len(data))
	if err != nil {
		return err
	}
	buf := make([]complex128, fs.N)
	fs.GatherColumns(buf, data)
	if err := c.runShards(ctx, serve.ShardFrame{Op: serve.OpColumns, VecLen: fs.N1, TotalN: fs.N}, buf, fs.N2, 0); err != nil {
		return err
	}
	fs.ScatterColumns(data, buf)
	if err := c.runShards(ctx, serve.ShardFrame{Op: serve.OpRows, VecLen: fs.N2}, data, fs.N1, 0); err != nil {
		return err
	}
	fs.FinalTranspose(buf, data)
	copy(data, buf)
	return nil
}

// runShards splits vecCount contiguous vectors of proto.VecLen held in
// data into ShardVecs-sized segments and executes them concurrently,
// writing results back in place. The first error cancels the rest.
// base offsets every frame's Start: a whole-transform pass uses 0,
// while the out-of-core hook dispatches one RAM tile at a time and
// passes the tile's first global vector index, so workers see the same
// Start they would in a whole-transform pass (the column twiddle
// exponent and the placement key both derive from it).
func (c *Coordinator) runShards(ctx context.Context, proto serve.ShardFrame, data []complex128, vecCount, base int) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, c.cfg.MaxInflight)
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	for start := 0; start < vecCount; start += c.cfg.ShardVecs {
		count := min(c.cfg.ShardVecs, vecCount-start)
		seg := data[start*proto.VecLen : (start+count)*proto.VecLen]
		req := proto
		req.Start = base + start
		// The request owns a private copy of the payload: a hedge loser
		// (or a timed-out straggler) may still be serializing the
		// request when the winner's result is copied back into seg.
		req.Data = append([]complex128(nil), seg...)
		wg.Add(1)
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Done()
			errOnce.Do(func() { firstErr = ctx.Err() })
			goto wait
		}
		go func(req serve.ShardFrame, seg []complex128) {
			defer wg.Done()
			defer func() { <-sem }()
			out, err := c.execShard(ctx, req)
			if err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
				return
			}
			copy(seg, out.Data)
		}(req, seg)
	}
wait:
	wg.Wait()
	return firstErr
}

// shardKey is the placement key: op, vector length, and start index —
// but not the payload — so repeated transforms of one shape land each
// segment on the same worker and its plan cache stays warm.
func shardKey(f serve.ShardFrame) uint64 {
	h := fnv.New64a()
	var b [20]byte
	b[0] = byte(f.Op)
	binary.LittleEndian.PutUint64(b[1:9], uint64(f.VecLen))
	binary.LittleEndian.PutUint64(b[9:17], uint64(f.Start))
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// execShard runs one shard to completion: placement, per-attempt
// deadline, hedging, backoff retries excluding failed workers, and —
// when the worker set is exhausted — local execution, so a shard never
// fails for cluster reasons. The returned frame's Data may alias
// req.Data (local path) or be fresh (remote path).
func (c *Coordinator) execShard(ctx context.Context, req serve.ShardFrame) (serve.ShardFrame, error) {
	c.m.shards.Inc()
	key := shardKey(req)
	excluded := map[string]bool{}
	backoff := c.cfg.BackoffBase
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		cands := c.members.Successors(key, 2, excluded)
		if len(cands) == 0 {
			break
		}
		alt := ""
		if len(cands) > 1 {
			alt = cands[1]
		}
		resp, addr, err := c.execHedged(ctx, cands[0], alt, req)
		if err == nil {
			c.members.ReportSuccess(addr)
			return resp, nil
		}
		if ctx.Err() != nil {
			return serve.ShardFrame{}, ctx.Err()
		}
		excluded[cands[0]] = true
		if alt != "" {
			// The hedge peer may also have failed; excluding only
			// proven-bad workers keeps the pool as wide as possible, so
			// check before re-picking rather than excluding blindly.
			if c.members.worker(alt) != nil && !c.members.worker(alt).eligible(time.Now()) {
				excluded[alt] = true
			}
		}
		if attempt+1 < c.cfg.MaxAttempts {
			c.m.retries.Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return serve.ShardFrame{}, ctx.Err()
			}
			backoff = min(2*backoff, c.cfg.BackoffMax)
		}
	}
	// Worker set exhausted (or empty mid-flight): run the shard
	// locally rather than failing the client's transform.
	c.m.localShards.Inc()
	if err := c.execShardLocal(req); err != nil {
		return serve.ShardFrame{}, err
	}
	return req, nil
}

// execHedged performs one logical attempt: the primary RPC, plus — if
// hedging is enabled, a peer exists, and the primary is still silent
// after HedgeDelay — a hedge copy to the peer. The first success wins
// and cancels the other; if both fail the primary's error is returned.
func (c *Coordinator) execHedged(ctx context.Context, primary, alt string, req serve.ShardFrame) (serve.ShardFrame, string, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp  serve.ShardFrame
		addr  string
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	launch := func(addr string, hedge bool) {
		go func() {
			resp, err := c.execOnce(hctx, addr, req)
			ch <- result{resp: resp, addr: addr, err: err, hedge: hedge}
		}()
	}
	launch(primary, false)
	outstanding := 1
	var hedgeTimer <-chan time.Time
	if c.cfg.HedgeDelay > 0 && alt != "" {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeTimer = t.C
	}
	var firstErr error
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedge {
					c.m.hedgeWins.Inc()
				}
				return r.resp, r.addr, nil
			}
			if ctx.Err() == nil {
				// Count and report only genuine worker failures, not
				// cancellations of a hedge loser or of the whole call.
				c.m.errors.Inc()
				c.m.perWorkerErr(r.addr).Inc()
				c.members.ReportFailure(r.addr)
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			c.m.hedges.Inc()
			launch(alt, true)
			outstanding++
		case <-ctx.Done():
			return serve.ShardFrame{}, "", ctx.Err()
		}
	}
	return serve.ShardFrame{}, "", firstErr
}

// startRPC counts one RPC attempt against addr; the returned function,
// called when the RPC returns, records its latency in total and per
// worker. Every coordinator→worker call of either data path is
// bracketed by it.
func (c *Coordinator) startRPC(addr string) (done func()) {
	c.m.attempts.Inc()
	start := time.Now()
	return func() {
		d := time.Since(start).Seconds()
		c.m.rpcSec.Observe(d)
		c.m.perWorkerSec(addr).Observe(d)
	}
}

// execOnce performs one one-shot RPC with the per-attempt deadline.
func (c *Coordinator) execOnce(ctx context.Context, addr string, req serve.ShardFrame) (serve.ShardFrame, error) {
	if c.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.ShardTimeout)
		defer cancel()
	}
	done := c.startRPC(addr)
	resp, err := c.cfg.Transport.Exec(ctx, addr, req)
	done()
	if err != nil {
		return serve.ShardFrame{}, err
	}
	if resp.Op != req.Op || resp.VecLen != req.VecLen || len(resp.Data) != len(req.Data) {
		return serve.ShardFrame{}, fmt.Errorf("dist: worker %s returned a mismatched shard (op %s len %d×%d)",
			addr, resp.Op, resp.VecLen, resp.VecCount())
	}
	// One-shot frames round-trip the payload: request and response have
	// identical shapes.
	c.m.bytesMoved.Add(2 * int64(serve.ShardHeaderLen+16*len(req.Data)))
	return resp, nil
}

// execShardLocal executes one shard on the coordinator itself, in
// place — identical numerics to a worker's execShard when both run the
// same kernel (results agree to rounding otherwise): the sub-FFTs on
// Config.LocalKernel, the column scale from the shared two-level table.
func (c *Coordinator) execShardLocal(f serve.ShardFrame) error {
	lp, err := c.localPlanFor(f.VecLen)
	if err != nil {
		return err
	}
	var tw *fft.TwoLevelTable
	if f.Op == serve.OpColumns {
		tw = fft.TwoLevelTwiddles(f.TotalN)
	}
	kern := c.cfg.LocalKernel.Concrete()
	for v := 0; v < f.VecCount(); v++ {
		vec := f.Vec(v)
		lp.pl.TransformKernel(vec, lp.w, kern)
		if tw != nil {
			tw.Scale(vec, f.Start+v)
		}
	}
	return nil
}
