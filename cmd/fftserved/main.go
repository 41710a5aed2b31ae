// fftserved is the FFT serving daemon: an HTTP front end over the
// host engine's batched transform path. A request whose shape is idle
// dispatches at once; same-shape requests arriving while that batch runs
// are coalesced into the next TransformBatch dispatch, with admission
// control (bounded queue, 429/503 shedding), per-request deadlines, and
// panic-isolated execution. SIGTERM/SIGINT triggers a graceful drain:
// new requests shed with 503 while every admitted request finishes.
//
//	go run ./cmd/fftserved -addr :8080 -max-batch 64
//
// Endpoints: POST /fft (JSON), POST /fft/bin (binary frames),
// POST /fft/stft (chunked NDJSON spectrogram stream — frames flow back
// while later chunks are still transforming, and an in-flight stream
// finishes through a drain instead of being severed), GET /metrics,
// GET /healthz, GET /debug/vars (expvar), and — with
// -pprof — the net/http/pprof handlers under /debug/pprof/. With -worker
// the daemon additionally serves POST /fft/shard, the cluster
// shard-execution endpoint a fftcluster coordinator dispatches
// four-step segments to.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"codeletfft/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxBatch   = flag.Int("max-batch", serve.DefaultMaxBatch, "most requests queued behind a shape's running batch that form the next one")
		queue      = flag.Int("queue", serve.DefaultQueueLimit, "admission queue limit; beyond it requests shed with 429")
		timeout    = flag.Duration("timeout", serve.DefaultRequestTimeout, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", serve.DefaultMaxTimeout, "cap on client-supplied ?timeout=")
		minN       = flag.Int("min-n", serve.DefaultMinN, "smallest served transform length")
		maxN       = flag.Int("max-n", serve.DefaultMaxN, "largest served transform length")
		workers    = flag.Int("workers", 0, "most ways a batch is split over the worker pool (0 = GOMAXPROCS)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")
		worker     = flag.Bool("worker", false, "serve POST /fft/shard so a fftcluster coordinator can dispatch four-step segments here")
		pprof      = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the serving mux")
	)
	flag.Parse()

	cfg := serve.Config{
		MinN:           *minN,
		MaxN:           *maxN,
		MaxBatch:       *maxBatch,
		QueueLimit:     *queue,
		RequestTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Workers:        *workers,
		EnableShard:    *worker,
	}
	s := serve.New(cfg)
	s.Registry().Publish("fftserved")

	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	if *pprof {
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
	mode := ""
	if *worker {
		mode = " worker-mode"
	}
	log.Printf("fftserved listening on %s%s (max-batch=%d queue=%d N=[%d,%d])",
		*addr, mode, *maxBatch, *queue, *minN, *maxN)

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("signal received; draining (timeout %v)", *drainWait)
	// Shed first so the queue only shrinks, then stop accepting
	// connections and wait for in-flight handlers, then for the
	// executors behind them.
	s.StartDrain()
	httpSrv.SetKeepAlivesEnabled(false)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := s.Drain(shutCtx); err != nil {
		log.Printf("drain: %v", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("listener: %v", err)
	}
	log.Printf("drained cleanly")
}
