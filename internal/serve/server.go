// Package serve is the HTTP serving layer of the FFT daemon
// (cmd/fftserved): it accepts transform requests over JSON or the
// compact binary codec, coalesces same-shape requests that arrive while
// a batch of their shape is running into the next TransformBatch
// dispatch (pipeline.go), and wraps the whole path in production
// controls — per-request deadlines, admission control with a bounded
// queue and explicit 429/503 shedding, a panic-isolated executor, and
// graceful drain — with every stage instrumented through
// internal/metrics.
//
// Endpoints:
//
//	POST /fft       JSON request  {"kind","re","im"} → {"n","re","im"}
//	POST /fft/bin   binary Frame (codec.go) → binary Frame
//	POST /fft/stft  JSON request {"frame","hop","window","samples"} →
//	                chunked NDJSON spectrogram stream (stft.go)
//	GET  /metrics   plain-text instrument exposition
//	GET  /healthz   "ok", or 503 once draining
//
// Shedding semantics: a request that arrives while the server drains is
// refused with 503 before any work happens; one that finds the
// admission queue full is refused with 429; one whose deadline expires
// while queued or batched is answered 504 and skipped by the executor
// (its slot still counts against the queue until the batch completes).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft"
	"codeletfft/internal/fft"
	"codeletfft/internal/host"
	"codeletfft/internal/metrics"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultMinN           = 8
	DefaultMaxN           = 1 << 22
	DefaultMaxBatch       = 64
	DefaultQueueLimit     = 1024
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxTimeout     = time.Minute
	DefaultSessionTTL     = 2 * time.Minute
	DefaultMaxSessions    = 8
)

// Config tunes a Server. The zero value of every field selects the
// package default.
type Config struct {
	// MinN and MaxN bound the accepted transform length (inclusive).
	// Complex transforms accept any length in the range; real
	// transforms additionally require a power of two ≥ 4.
	MinN, MaxN int
	// MaxBatch caps how many requests queued behind a shape's running
	// batch the executor takes as the next one.
	MaxBatch int
	// QueueLimit bounds the number of admitted-but-unfinished requests
	// across all shapes; beyond it requests are shed with 429.
	QueueLimit int
	// RequestTimeout is the per-request deadline when the client sends
	// none; MaxTimeout caps what a client may ask for via ?timeout=.
	RequestTimeout, MaxTimeout time.Duration
	// Workers and TaskSize configure the plans the executor resolves:
	// the most ways a batch is split over the process's worker pool
	// (which has GOMAXPROCS workers whatever this says), and the kernel
	// size. 0 means the defaults: GOMAXPROCS ways, 64-point tasks. The
	// butterfly kernel is not a setting: every plan runs the facade's
	// default for its length (fft.AutoKernel), so a daemon's output bits
	// are a function of the request and the build.
	Workers, TaskSize int
	// EnableShard mounts the cluster shard-exec endpoint
	// (POST /fft/shard), making this server a worker a dist
	// coordinator can dispatch four-step segments to.
	EnableShard bool
	// Peers sends this worker's exchange frames to its peers during a
	// resident session (the on-worker four-step transpose). nil is fine
	// for single-worker clusters; a worker without a sender refuses the
	// open of a session whose spec names peers.
	Peers PeerSender
	// SessionTTL expires idle resident sessions (lazy GC on session
	// traffic); 0 means DefaultSessionTTL.
	SessionTTL time.Duration
	// MaxSessions bounds concurrently open resident sessions (each pins
	// a rows buffer); 0 means DefaultMaxSessions.
	MaxSessions int
	// Registry collects the server's instruments; New creates one when
	// nil. The daemon publishes it at /metrics and through expvar.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.MinN <= 0 {
		c.MinN = DefaultMinN
	}
	if c.MaxN <= 0 {
		c.MaxN = DefaultMaxN
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = DefaultMaxTimeout
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// serverMetrics names every instrument once, so handler code reads like
// the exposition page.
type serverMetrics struct {
	requests  *metrics.Counter
	ok        *metrics.Counter
	bad       *metrics.Counter
	shedQueue *metrics.Counter
	shedDrain *metrics.Counter
	deadline  *metrics.Counter
	internal  *metrics.Counter
	expired   *metrics.Counter
	panics    *metrics.Counter
	batches   *metrics.Counter

	stftStreams *metrics.Counter
	stftFrames  *metrics.Counter

	shardRequests *metrics.Counter
	shardBad      *metrics.Counter
	shardVecs     *metrics.Counter

	sessOpens     *metrics.Counter
	sessCols      *metrics.Counter
	sessExchanges *metrics.Counter
	sessRows      *metrics.Counter
	sessCloses    *metrics.Counter
	sessExpired   *metrics.Counter
	sessBad       *metrics.Counter

	occupancy  *metrics.Histogram
	batchSec   *metrics.Histogram
	requestSec *metrics.Histogram
	readSec    *metrics.Histogram
	writeSec   *metrics.Histogram
	shardSec   *metrics.Histogram
}

func newServerMetrics(r *metrics.Registry) serverMetrics {
	latency := metrics.ExpBuckets(1e-5, 2, 22) // 10µs … ~40s
	return serverMetrics{
		requests:  r.Counter("fft_requests_total"),
		ok:        r.Counter("fft_responses_ok_total"),
		bad:       r.Counter("fft_responses_bad_request_total"),
		shedQueue: r.Counter("fft_responses_shed_queue_total"),
		shedDrain: r.Counter("fft_responses_shed_drain_total"),
		deadline:  r.Counter("fft_responses_deadline_total"),
		internal:  r.Counter("fft_responses_error_total"),
		expired:   r.Counter("fft_expired_in_queue_total"),
		panics:    r.Counter("fft_panics_total"),
		batches:   r.Counter("fft_batches_total"),

		stftStreams: r.Counter("fft_stft_streams_total"),
		stftFrames:  r.Counter("fft_stft_frames_total"),

		shardRequests: r.Counter("shard_requests_total"),
		shardBad:      r.Counter("shard_bad_total"),
		shardVecs:     r.Counter("shard_vecs_total"),

		sessOpens:     r.Counter("sess_opens_total"),
		sessCols:      r.Counter("sess_cols_total"),
		sessExchanges: r.Counter("sess_exchanges_total"),
		sessRows:      r.Counter("sess_rows_total"),
		sessCloses:    r.Counter("sess_closes_total"),
		sessExpired:   r.Counter("sess_expired_total"),
		sessBad:       r.Counter("sess_bad_total"),

		occupancy:  r.Histogram("fft_batch_occupancy", metrics.ExpBuckets(1, 2, 11)), // 1 … 1024
		batchSec:   r.Histogram("fft_batch_seconds", latency),
		requestSec: r.Histogram("fft_request_seconds", latency),
		shardSec:   r.Histogram("shard_exec_seconds", latency),
		// Where a /fft or /fft/bin request's time went: reading is header,
		// payload and shape checks, writing is encoding and the response
		// body, and request − read − its batch − write is queueing.
		readSec:  r.Histogram("fft_read_seconds", latency),
		writeSec: r.Histogram("fft_write_seconds", latency),
	}
}

// engineObserver adapts the host engine's telemetry callbacks onto
// histogram instruments; it is installed on every plan the executor
// resolves, so batch occupancy and per-pass latency are measured by the
// engine itself rather than re-derived by the daemon. The pass map is
// read-only after construction, so the callbacks are lock-free.
type engineObserver struct {
	occupancy *metrics.Histogram
	batchSec  *metrics.Histogram
	passSec   map[string]*metrics.Histogram
}

func newEngineObserver(r *metrics.Registry) *engineObserver {
	latency := metrics.ExpBuckets(1e-6, 2, 24) // 1µs … ~16s
	passes := make(map[string]*metrics.Histogram, 8)
	// Every label an engine may emit is pre-registered, including the
	// per-kernel stage labels (host.StagePassLabel), so the first
	// radix-4 or split-radix batch doesn't race a map write.
	for _, p := range []string{host.PassBitRev, host.PassStage, host.PassStageRadix4,
		host.PassStageSplitRadix, host.PassStageSoA2, host.PassStageSoA4,
		host.PassSoAPack, host.PassSoAUnpack, host.PassConj, host.PassScale,
		host.PassStageMixed, host.PassChirp} {
		passes[p] = r.Histogram("engine_pass_"+p+"_seconds", latency)
	}
	return &engineObserver{
		occupancy: r.Histogram("engine_batch_occupancy", metrics.ExpBuckets(1, 2, 11)),
		batchSec:  r.Histogram("engine_batch_seconds", latency),
		passSec:   passes,
	}
}

func (o *engineObserver) ObserveBatch(batch, n int, d time.Duration) {
	o.occupancy.Observe(float64(batch))
	o.batchSec.Observe(d.Seconds())
}

func (o *engineObserver) ObservePass(pass string, d time.Duration) {
	if h, ok := o.passSec[pass]; ok {
		h.Observe(d.Seconds())
	}
}

// Server coalesces and executes FFT requests. Build with New, mount
// Handler, and call Drain on shutdown.
type Server struct {
	cfg Config
	reg *metrics.Registry
	m   serverMetrics
	mux *http.ServeMux

	planOpts []codeletfft.HostOption

	// sem holds one token per admitted-but-unfinished request; a full
	// channel is the 429 condition and len(sem) is the queue-depth gauge.
	sem chan struct{}

	draining atomic.Bool

	// shapes holds an entry for every shape with a batch running: the
	// requests queued behind it (pipeline.go). A shape with nothing
	// running has no entry, so the table is bounded by the executors
	// alive, not by the shapes ever served.
	mu     sync.Mutex
	shapes map[batchKey][]*pending

	// Resident-session table: sessions pin rows buffers between the
	// cols and rows phases; idle entries are reaped lazily on session
	// traffic once SessionTTL passes.
	sessMu     sync.Mutex
	sessions   map[uint64]*sessEntry
	lastSessGC time.Time

	// execHook, when non-nil, runs inside run's isolation boundary just
	// before the transform — the test seam for panics and for parking a
	// batch so that followers queue behind it.
	execHook func(key batchKey, rows [][]complex128)

	maxBody int64
}

// New builds a Server from cfg (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		m:        newServerMetrics(cfg.Registry),
		sem:      make(chan struct{}, cfg.QueueLimit),
		shapes:   make(map[batchKey][]*pending),
		sessions: make(map[uint64]*sessEntry),
		// JSON spells a float64 in ~25 bytes; 64·MaxN covers the worst
		// re+im request with headroom, and the binary frame is smaller.
		maxBody: int64(cfg.MaxN)*64 + 4096,
	}
	obs := newEngineObserver(cfg.Registry)
	s.planOpts = []codeletfft.HostOption{codeletfft.WithObserver(obs)}
	if cfg.Workers > 0 {
		s.planOpts = append(s.planOpts, codeletfft.WithWorkers(cfg.Workers))
	}
	if cfg.TaskSize > 0 {
		s.planOpts = append(s.planOpts, codeletfft.WithTaskSize(cfg.TaskSize))
	}
	cfg.Registry.GaugeFunc("fft_queue_depth", func() float64 { return float64(len(s.sem)) })
	cfg.Registry.GaugeFunc("plan_cache_len", func() float64 { return float64(codeletfft.PlanCacheLen()) })
	cfg.Registry.GaugeFunc("plan_cache_hits_total", func() float64 {
		h, _ := codeletfft.PlanCacheStats()
		return float64(h)
	})
	cfg.Registry.GaugeFunc("plan_cache_misses_total", func() float64 {
		_, m := codeletfft.PlanCacheStats()
		return float64(m)
	})

	mux := http.NewServeMux()
	mux.HandleFunc("POST /fft", s.handleJSON)
	mux.HandleFunc("POST /fft/bin", s.handleBinary)
	mux.HandleFunc("POST /fft/stft", s.handleSTFT)
	if cfg.EnableShard {
		mux.HandleFunc("POST /fft/shard", s.handleShard)
	}
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// StartDrain flips the server into draining mode: subsequent requests
// are refused with 503. Nothing admitted waits on a clock, so there is
// nothing to flush. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain initiates drain (if not already started) and blocks until every
// admitted request has been answered or ctx expires: tokens are released
// only after the executor (or the stream or shard handler holding one)
// is done, so an empty queue means nothing is in flight. Combined with
// http.Server.Shutdown it gives SIGTERM semantics: stop accepting,
// finish everything in flight, exit.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for len(s.sem) > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// shapeError tags client errors found before any work happens.
type shapeError struct{ msg string }

func (e *shapeError) Error() string { return e.msg }

func shapeErrorf(format string, args ...any) error {
	return &shapeError{msg: fmt.Sprintf(format, args...)}
}

// checkN validates a transform length against the server's bounds.
// Complex kinds (and STFT frame lengths) serve any length the facade
// plans (any n ≥ 1, via mixed-radix or Bluestein); real kinds carry
// the packed path's even ≥ 4 requirement. Every rejection is a
// shapeError — a 400, never a 500 — because an unservable length is a
// client mistake, not a daemon fault.
func (s *Server) checkN(n int, kind Kind) error {
	if kind == KindReal || kind == KindRealInverse {
		if n < 4 || n%2 != 0 {
			return shapeErrorf("real transforms need an even length ≥ 4, got %d", n)
		}
	} else if n < 1 {
		return shapeErrorf("transform length %d is not positive", n)
	}
	if n < s.cfg.MinN || n > s.cfg.MaxN {
		return shapeErrorf("transform length %d outside served range [%d, %d]", n, s.cfg.MinN, s.cfg.MaxN)
	}
	return nil
}

// deadlineFor resolves the request's deadline: ?timeout= if present
// (capped at MaxTimeout), the server default otherwise.
func (s *Server) deadlineFor(r *http.Request) (time.Duration, error) {
	q := r.URL.Query().Get("timeout")
	if q == "" {
		return s.cfg.RequestTimeout, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil || d <= 0 {
		return 0, shapeErrorf("bad timeout %q", q)
	}
	return min(d, s.cfg.MaxTimeout), nil
}

// jsonRequest is the JSON wire format. Re is the payload (samples for
// complex/real kinds, spectrum-real-parts for real-inverse); Im, when
// present, must match its length.
type jsonRequest struct {
	Kind string    `json:"kind"`
	Re   []float64 `json:"re"`
	Im   []float64 `json:"im"`
}

type jsonResponse struct {
	N  int       `json:"n"`
	Re []float64 `json:"re"`
	Im []float64 `json:"im,omitempty"`
}

func parseKind(k string) (Kind, error) {
	switch k {
	case "", "forward":
		return KindForward, nil
	case "inverse":
		return KindInverse, nil
	case "real":
		return KindReal, nil
	case "real-inverse":
		return KindRealInverse, nil
	default:
		return 0, shapeErrorf("unknown kind %q", k)
	}
}

// decodeJSON reads the JSON wire form of a request into a Frame: kind
// real carries its samples as the real payload, every other kind zips
// re/im into the complex one.
func decodeJSON(body io.Reader) (Frame, error) {
	var req jsonRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return Frame{}, shapeErrorf("bad JSON: %v", err)
	}
	kind, err := parseKind(req.Kind)
	switch {
	case err != nil:
		return Frame{}, err
	case len(req.Im) > 0 && len(req.Im) != len(req.Re):
		return Frame{}, shapeErrorf("im has %d values, re has %d", len(req.Im), len(req.Re))
	case kind == KindReal && len(req.Im) > 0:
		return Frame{}, shapeErrorf("kind real takes no im values")
	case kind == KindReal:
		return Frame{Kind: kind, Real: req.Re}, nil
	}
	c := make([]complex128, len(req.Re))
	for i, re := range req.Re {
		if len(req.Im) > 0 {
			c[i] = complex(re, req.Im[i])
		} else {
			c[i] = complex(re, 0)
		}
	}
	return Frame{Kind: kind, Complex: c}, nil
}

// encodeJSON renders a response Frame in the JSON wire form; n is the
// transform length, which a half spectrum implies.
func encodeJSON(f Frame) ([]byte, error) {
	resp := jsonResponse{N: len(f.Complex), Re: f.Real}
	switch f.Kind {
	case KindRealInverse:
		resp.N = len(f.Real)
	case KindReal:
		resp.N = 2 * (len(f.Complex) - 1)
	}
	if f.Complex != nil {
		resp.Re = make([]float64, len(f.Complex))
		resp.Im = make([]float64, len(f.Complex))
		for i, v := range f.Complex {
			resp.Re[i], resp.Im[i] = real(v), imag(v)
		}
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// wireCodec is one wire form of a Frame, as the pair of functions that
// take a request off the wire and put its answer on it.
type wireCodec struct {
	// read has ReadFrame's contract: check sees the frame's shape before
	// a payload it would refuse is buffered, and the buffer returned with
	// the frame is the pooled one behind its payload — nil where the
	// payload is the garbage collector's, as JSON's is.
	read func(body io.Reader, declared int64, check func(FrameHeader) error) (Frame, *[]complex128, error)
	// write answers with f. It calls ok once f is known to encode and
	// before the first byte leaves, and returns an error only before
	// that; a write the client did not stay for is not an error.
	write func(w http.ResponseWriter, f Frame, ok func()) error
}

var (
	jsonCodec   = wireCodec{readJSON, writeJSON}
	binaryCodec = wireCodec{ReadFrame, writeFrame}
)

func readJSON(body io.Reader, _ int64, check func(FrameHeader) error) (Frame, *[]complex128, error) {
	f, err := decodeJSON(body)
	if err != nil {
		return Frame{}, nil, err
	}
	// decodeJSON puts kind real's samples, and only those, in f.Real.
	return f, nil, check(FrameHeader{Kind: f.Kind, Real: f.Kind == KindReal, Count: len(f.Complex) + len(f.Real)})
}

func writeJSON(w http.ResponseWriter, f Frame, ok func()) error {
	body, err := encodeJSON(f)
	if err != nil {
		return err
	}
	ok()
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body) // a failed write means the client went away
	return nil
}

func (s *Server) handleJSON(w http.ResponseWriter, r *http.Request) { s.handleFrame(w, r, jsonCodec) }

func (s *Server) handleBinary(w http.ResponseWriter, r *http.Request) {
	s.handleFrame(w, r, binaryCodec)
}

// handleFrame serves one transform request in either wire form: the
// codec reads the body into a Frame and writes the answer from one;
// shape checks, admission, coalescing and the transform are the same
// code for both. The request's buffers are dropped on every way out —
// a refusal's error body is still in the response buffer when the
// deferred drop runs, so a refused request has given its buffer back
// before its answer reaches the wire.
func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request, c wireCodec) {
	start := time.Now()
	s.m.requests.Inc()
	defer func() { s.m.requestSec.Observe(time.Since(start).Seconds()) }()

	var key batchKey
	in, buf, err := c.read(http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength, func(h FrameHeader) (err error) {
		key, err = s.shape(h)
		return err
	})
	s.m.readSec.Observe(time.Since(start).Seconds())
	if err != nil {
		s.reject(w, err)
		return
	}
	p := newPending(key, in, buf)
	defer p.drop()
	ctx, cancel, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer cancel()
	p.ownsToken = true
	if err := s.submit(ctx, key, p); err != nil {
		s.fail(w, err)
		return
	}
	wstart := time.Now()
	err = c.write(w, p.response(key.kind), s.m.ok.Inc)
	s.m.writeSec.Observe(time.Since(wstart).Seconds())
	if err != nil {
		s.fail(w, err)
	}
}

// shape names the batch a frame with header h belongs to, or the
// reason the daemon does not serve it. It needs the header only, so a
// binary request is judged before its payload is read.
func (s *Server) shape(h FrameHeader) (batchKey, error) {
	key := batchKey{kind: h.Kind}
	switch {
	case h.Kind == KindReal && !h.Real:
		return key, shapeErrorf("kind real takes a real payload")
	case h.Kind != KindReal && h.Real:
		return key, shapeErrorf("kind %s takes a complex payload", h.Kind)
	case h.Kind == KindRealInverse:
		key.n = 2 * (h.Count - 1)
	default:
		key.n = h.Count
	}
	return key, s.checkN(key.n, h.Kind)
}

// newPending lays out the buffers the transform of in works in. The
// real kinds' second buffer rides the same pool as the payload: a
// half spectrum as it is, real samples as the float64s of a complex
// buffer half as long.
func newPending(key batchKey, in Frame, buf *[]complex128) *pending {
	p := &pending{rows: [][]complex128{in.Complex}, real: in.Real, pooled: [2]*[]complex128{buf}}
	p.holders.Store(1)
	switch key.kind {
	case KindReal:
		p.pooled[1] = AcquireComplex(key.n/2 + 1)
		p.rows[0] = *p.pooled[1]
	case KindRealInverse:
		p.pooled[1] = AcquireComplex(key.n / 2)
		p.real = fft.ComplexFloat64s(*p.pooled[1])
	}
	return p
}

// response is newPending's inverse: the frame that answers a served
// pending.
func (p *pending) response(kind Kind) Frame {
	if kind == KindRealInverse {
		return Frame{Kind: kind, Real: p.real}
	}
	return Frame{Kind: kind, Complex: p.rows[0]}
}
