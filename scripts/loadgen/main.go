// loadgen is the smoke load generator for fftserved: it drives the
// daemon with concurrent clients posting mixed-size binary frames,
// tallies response codes and latencies, and finishes by scraping
// /metrics so a run doubles as a coalescing check (mean batch
// occupancy > 1 shows requests that arrived while their shape's batch
// was running were merged into the next one).
//
//	go run ./cmd/fftserved &
//	go run ./scripts/loadgen -addr http://localhost:8080 -clients 200 -duration 5s
//
// With -cluster the target is a fftcluster coordinator instead: the
// mix shifts to large complex transforms (the four-step sweet spot),
// real-input kinds are dropped (the cluster path is complex-only), and
// the final scrape reports the coordinator's error/retry/degradation
// counters and resident-session wire bytes:
//
//	go run ./cmd/fftcluster -workers ... &
//	go run ./scripts/loadgen -cluster -addr http://localhost:9100 -clients 8
//
// Shed responses (429 queue-full, 503 draining) are counted separately
// from failures: under deliberate overload they are the daemon working
// as designed, not an error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/serve"
)

// flagSet reports whether the named flag was given explicitly on the
// command line (as opposed to holding its default).
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// retryable reports whether a transport error is the keep-alive
// shutdown race (server closed a pooled connection under our write)
// rather than a request the server actually saw.
func retryable(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "connection reset by peer") ||
		strings.Contains(msg, "EOF") ||
		strings.Contains(msg, "broken pipe") ||
		strings.Contains(msg, "use of closed network connection") ||
		// net/http's own name for the race, when the close reaches the
		// client while the connection sits idle in its pool. A reply with
		// a Content-Length is complete to the client before the handler
		// has returned, so under a drain this spelling is the common one.
		strings.Contains(msg, "server closed idle connection")
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "daemon base URL")
		clients  = flag.Int("clients", 200, "concurrent client goroutines")
		duration = flag.Duration("duration", 5*time.Second, "how long to generate load")
		sizeList = flag.String("sizes", "1024,4096,16384", "comma-separated transform lengths to mix")
		realFrac = flag.Float64("real", 0.25, "fraction of requests using the real-input kind")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request client timeout")
		clusterT = flag.Bool("cluster", false, "target a fftcluster coordinator: large-N complex mix, dist_* metrics scrape")
	)
	flag.Parse()

	if *clusterT {
		// The cluster path serves complex frames only, and pays off at
		// sizes worth factoring four-step; respect explicit overrides.
		*realFrac = 0
		if !flagSet("sizes") {
			*sizeList = "65536,262144,1048576"
		}
		if !flagSet("timeout") {
			*timeout = 30 * time.Second
		}
	}

	var sizes []int
	for _, s := range strings.Split(*sizeList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad size %q: %v", s, err)
		}
		sizes = append(sizes, n)
	}

	var (
		ok, shed, refused, failed atomic.Int64
		okElems                   atomic.Int64 // points in the requests answered 200
		mu                        sync.Mutex
		latencies                 []time.Duration
		failSamples               []string
	)
	recordFailure := func(msg string) {
		failed.Add(1)
		mu.Lock()
		if len(failSamples) < 10 {
			failSamples = append(failSamples, msg)
		}
		mu.Unlock()
	}
	client := &http.Client{Timeout: *timeout}
	stop := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(stop) {
				n := sizes[rng.Intn(len(sizes))]
				var frame serve.Frame
				if rng.Float64() < *realFrac {
					sig := make([]float64, n)
					for i := range sig {
						sig[i] = rng.NormFloat64()
					}
					frame = serve.Frame{Kind: serve.KindReal, Real: sig}
				} else {
					data := make([]complex128, n)
					for i := range data {
						data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
					kind := serve.KindForward
					if rng.Intn(2) == 1 {
						kind = serve.KindInverse
					}
					frame = serve.Frame{Kind: kind, Complex: data}
				}
				enc, err := serve.EncodeFrame(frame)
				if err != nil {
					log.Fatalf("encoding frame: %v", err)
				}
				start := time.Now()
				resp, err := client.Post(*addr+"/fft/bin", "application/octet-stream", bytes.NewReader(enc))
				// A reset or EOF on a pooled keep-alive connection is the
				// shutdown race: the server closed the idle connection
				// while our bytes were in flight, so the request was never
				// read. Frames are stateless, so retrying is always safe;
				// each retry may draw another doomed pooled connection, so
				// allow a few before giving up (a fresh dial against a
				// closed listener fails with a clean refusal instead).
				for attempt := 0; err != nil && retryable(err) && attempt < 4; attempt++ {
					resp, err = client.Post(*addr+"/fft/bin", "application/octet-stream", bytes.NewReader(enc))
				}
				if err != nil {
					// A refused dial means the listener is gone (daemon
					// exited); the request was never in flight. Anything
					// else that survives the retry counts as a failure:
					// under graceful drain an accepted request must be
					// answered, never severed.
					if strings.Contains(err.Error(), "connection refused") {
						refused.Add(1)
					} else {
						recordFailure(err.Error())
					}
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					okElems.Add(int64(n))
					d := time.Since(start)
					mu.Lock()
					latencies = append(latencies, d)
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					recordFailure(fmt.Sprintf("status %d", resp.StatusCode))
				}
			}
		}(int64(c) + 1)
	}
	wg.Wait()

	total := ok.Load() + shed.Load() + refused.Load() + failed.Load()
	fmt.Printf("requests: %d total, %d ok, %d shed (429/503), %d refused dials, %d failed\n",
		total, ok.Load(), shed.Load(), refused.Load(), failed.Load())
	for _, msg := range failSamples {
		fmt.Printf("  failure: %s\n", msg)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		q := func(p float64) time.Duration { return latencies[int(p*float64(len(latencies)-1))] }
		fmt.Printf("latency: p50 %v  p90 %v  p99 %v  max %v\n",
			q(0.50), q(0.90), q(0.99), latencies[len(latencies)-1])
		fmt.Printf("throughput: %.0f ok req/s over %v\n",
			float64(ok.Load())/duration.Seconds(), *duration)
	}

	resp, err := http.Get(*addr + "/metrics")
	if err != nil {
		// The daemon may already have exited (SIGTERM drain runs); the
		// load results above still stand.
		log.Printf("scraping /metrics skipped: %v", err)
		if failed.Load() > 0 {
			os.Exit(1)
		}
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("reading /metrics: %v", err)
	}
	fmt.Println("\ndaemon metrics:")
	interesting := []string{
		"fft_requests_total", "fft_batches_total",
		"fft_batch_occupancy_mean", "fft_batch_occupancy_max",
		"fft_responses_shed_queue_total", "fft_responses_shed_drain_total",
		"fft_responses_deadline_total", "fft_queue_depth",
		"plan_cache_len", "engine_batch_occupancy_mean",
	}
	if *clusterT {
		interesting = []string{
			"cluster_requests_total", "cluster_ok_total", "cluster_shed_total",
			"dist_transforms_total",
			"dist_rpc_attempts_total", "dist_rpc_errors_total",
			"dist_retries_total", "dist_degraded_total",
			"dist_resident_ok_total", "dist_resident_fallback_total",
			"dist_resident_bytes_total", "dist_resident_elems_total",
			"dist_bytes_moved_total",
			"dist_workers_eligible", "dist_workers_total",
		}
	}
	for _, line := range strings.Split(string(raw), "\n") {
		for _, name := range interesting {
			if strings.HasPrefix(line, name+" ") {
				fmt.Println("  " + line)
			}
		}
		// Every byte the coordinator moved — abandoned session attempts
		// included — over the points it answered: the honest cost of
		// retrying whole sessions (32 is one trip out and one back).
		if v, found := strings.CutPrefix(line, "dist_bytes_moved_total "); found && okElems.Load() > 0 {
			if moved, err := strconv.ParseFloat(v, 64); err == nil {
				fmt.Printf("  coordinator wire, all attempts: %.3f bytes/element over %d elements\n",
					moved/float64(okElems.Load()), okElems.Load())
			}
		}
	}
	if failed.Load() > 0 {
		os.Exit(1)
	}
}
