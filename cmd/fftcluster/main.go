// fftcluster is the cluster FFT coordinator daemon: an HTTP front end
// over internal/dist. Client transforms arrive as binary frames
// (the fftserved FFB1 codec, complex forward/inverse kinds), are
// factored four-step, and the column/row FFT passes run as one resident
// session over `fftserved -worker` processes — with health-checked
// membership, per-worker circuit breakers, consistent-hash placement, a
// failed session retried after a backoff on the workers it did not
// blame, and graceful degradation to local execution when the worker
// set is empty or exhausted.
//
//	go run ./cmd/fftcluster -addr :9100 \
//	    -workers http://127.0.0.1:9101,http://127.0.0.1:9102 \
//	    -probe 500ms
//
// Endpoints: POST /fft/bin (binary frames, forward/inverse complex),
// GET /metrics, GET /healthz, GET /debug/vars (expvar), and — with
// -pprof — the net/http/pprof handlers under /debug/pprof/. SIGTERM/SIGINT
// triggers a graceful drain: new requests shed with 503 while admitted
// transforms finish.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"codeletfft"
	"codeletfft/internal/dist"
	"codeletfft/internal/metrics"
	"codeletfft/internal/serve"
)

// server fronts a dist.Coordinator with the binary frame protocol and
// drain bookkeeping.
type server struct {
	co       *dist.Coordinator
	reg      *metrics.Registry
	timeout  time.Duration
	draining atomic.Bool
	inflight sync.WaitGroup

	requests *metrics.Counter
	okCount  *metrics.Counter
	bad      *metrics.Counter
	shed     *metrics.Counter
}

func newServer(co *dist.Coordinator, timeout time.Duration) *server {
	reg := co.Registry()
	return &server{
		co:       co,
		reg:      reg,
		timeout:  timeout,
		requests: reg.Counter("cluster_requests_total"),
		okCount:  reg.Counter("cluster_ok_total"),
		bad:      reg.Counter("cluster_bad_total"),
		shed:     reg.Counter("cluster_shed_total"),
	}
}

func (s *server) handleBin(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	if s.draining.Load() {
		s.shed.Inc()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()

	// The frame's payload goes from the socket into the pooled buffer the
	// coordinator transforms in place, and the answer leaves from it; a
	// frame of another kind is refused on its 12-byte header.
	f, buf, err := serve.ReadFrame(http.MaxBytesReader(w, r.Body, 16*int64(serve.MaxFrameElems)+64), r.ContentLength,
		func(h serve.FrameHeader) error {
			if h.Real || (h.Kind != serve.KindForward && h.Kind != serve.KindInverse) {
				return errors.New("cluster serves complex forward/inverse frames only")
			}
			return nil
		})
	if err != nil {
		s.bad.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer serve.ReleaseComplex(buf) // after the answer is written
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	if f.Kind == serve.KindForward {
		err = s.co.Transform(ctx, f.Complex)
	} else {
		err = s.co.Inverse(ctx, f.Complex)
	}
	if err != nil {
		switch {
		case ctx.Err() != nil:
			http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		case errors.Is(err, codeletfft.ErrUnsupportedLength):
			s.bad.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.okCount.Inc()
	_ = serve.WriteFrame(w, f) // f came from ReadFrame: it encodes
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	_, _ = io.WriteString(w, "ok\n")
}

func main() {
	var (
		addr        = flag.String("addr", ":9100", "listen address")
		workers     = flag.String("workers", "", "comma-separated worker base URLs (fftserved -worker processes)")
		memberFile  = flag.String("member-file", "", "membership file polled for worker joins/leaves (one address per line)")
		probe       = flag.Duration("probe", time.Second, "worker health-probe interval (0 disables)")
		maxAttempts = flag.Int("max-attempts", dist.DefaultMaxAttempts, "session attempts per transform, first attempt included")
		shardTO     = flag.Duration("shard-timeout", dist.DefaultShardTimeout, "deadline of each session RPC")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")
		pprofFlag   = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the serving mux")
	)
	flag.Parse()

	var workerList []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workerList = append(workerList, w)
		}
	}
	co, err := dist.New(
		dist.WithTransport(&dist.HTTPTransport{}),
		dist.WithWorkers(workerList...),
		dist.WithMemberFile(*memberFile),
		dist.WithProbeInterval(*probe),
		dist.WithMaxAttempts(*maxAttempts),
		dist.WithShardTimeout(*shardTO),
	)
	if err != nil {
		log.Fatalf("fftcluster: %v", err)
	}
	defer co.Close()
	s := newServer(co, *timeout)
	s.reg.Publish("fftcluster")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fft/bin", s.handleBin)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if *pprofFlag {
		serve.RegisterPprof(mux)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("fftcluster listening on %s (%d workers, probe=%v)", *addr, len(workerList), *probe)

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("signal received; draining (timeout %v)", *drainWait)
	s.draining.Store(true)
	httpSrv.SetKeepAlivesEnabled(false)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-shutCtx.Done():
		log.Printf("drain: timed out with requests in flight")
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("listener: %v", err)
	}
	log.Printf("drained cleanly")
}
