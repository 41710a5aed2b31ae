package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"codeletfft"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain after test: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req jsonRequest) (*http.Response, jsonResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/fft", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jsonResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

var readAll = io.ReadAll

// gate parks the first batch the executor runs until release is called,
// which is how the tests make requests queue behind a running batch: no
// clock is involved, exactly as in the daemon. It records every batch's
// rows, in dispatch order.
type gate struct {
	started chan struct{} // closed when the first batch reaches the executor
	open    chan struct{}
	once    sync.Once

	mu      sync.Mutex
	batches [][][]complex128
}

func parkFirstBatch(s *Server) *gate {
	g := &gate{started: make(chan struct{}), open: make(chan struct{})}
	s.execHook = func(_ batchKey, rows [][]complex128) {
		g.mu.Lock()
		g.batches = append(g.batches, rows)
		first := len(g.batches) == 1
		g.mu.Unlock()
		if first {
			close(g.started)
			<-g.open
		}
	}
	return g
}

func (g *gate) release() { g.once.Do(func() { close(g.open) }) }

// sizes returns the row count of every batch so far.
func (g *gate) sizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, len(g.batches))
	for i, b := range g.batches {
		out[i] = len(b)
	}
	return out
}

// queued reports how many requests wait behind key's running batch, and
// tableLen how many shapes have an entry at all.
func (s *Server) queued(key batchKey) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shapes[key])
}

func (s *Server) tableLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shapes)
}

// impulse is an n-point forward request whose spectrum identifies it.
func impulse(n, at int) []byte {
	re := make([]float64, n)
	re[at] = 1
	body, _ := json.Marshal(jsonRequest{Kind: "forward", Re: re})
	return body
}

// postAsync posts body to /fft<query> on its own goroutine and delivers
// the status (-1 on a transport error).
func postAsync(url string, body []byte) <-chan int {
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			code <- -1
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

// parkLeaderAndFollowers gates the executor, sends one n-point forward
// request that becomes the running batch, then k more, one at a time in
// impulse order, and returns once all k are queued behind it.
func parkLeaderAndFollowers(t *testing.T, s *Server, url string, n, k int) (*gate, []<-chan int) {
	t.Helper()
	g := parkFirstBatch(s)
	t.Cleanup(g.release)
	codes := []<-chan int{postAsync(url+"/fft", impulse(n, 0))}
	<-g.started
	key := batchKey{n: n, kind: KindForward}
	for i := 1; i <= k; i++ {
		codes = append(codes, postAsync(url+"/fft", impulse(n, i)))
		waitFor(t, "follower to queue", func() bool { return s.queued(key) == i })
	}
	return g, codes
}

func TestJSONForwardImpulse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	re := make([]float64, 64)
	re[0] = 1 // FFT of the impulse is all ones
	resp, out := postJSON(t, ts.URL, jsonRequest{Kind: "forward", Re: re})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.N != 64 || len(out.Re) != 64 {
		t.Fatalf("response shape n=%d len=%d", out.N, len(out.Re))
	}
	for i := range out.Re {
		if math.Abs(out.Re[i]-1) > 1e-12 || math.Abs(out.Im[i]) > 1e-12 {
			t.Fatalf("bin %d = %v+%vi, want 1+0i", i, out.Re[i], out.Im[i])
		}
	}
}

func TestJSONRealRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 128
	re := make([]float64, n)
	for i := range re {
		re[i] = math.Cos(2 * math.Pi * 5 * float64(i) / n)
	}
	resp, spec := postJSON(t, ts.URL, jsonRequest{Kind: "real", Re: re})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("real: status = %d", resp.StatusCode)
	}
	if len(spec.Re) != n/2+1 {
		t.Fatalf("spectrum has %d bins, want %d", len(spec.Re), n/2+1)
	}
	// The cosine concentrates in bin 5 with weight n/2.
	if math.Abs(spec.Re[5]-n/2) > 1e-9 {
		t.Fatalf("bin 5 = %v, want %v", spec.Re[5], n/2)
	}
	resp, back := postJSON(t, ts.URL, jsonRequest{Kind: "real-inverse", Re: spec.Re, Im: spec.Im})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("real-inverse: status = %d", resp.StatusCode)
	}
	if len(back.Re) != n {
		t.Fatalf("recovered %d samples, want %d", len(back.Re), n)
	}
	for i := range re {
		if math.Abs(back.Re[i]-re[i]) > 1e-9 {
			t.Fatalf("sample %d = %v, want %v", i, back.Re[i], re[i])
		}
	}
}

func TestBinaryForwardInverseRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 256
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(math.Sin(float64(i)), math.Cos(float64(3*i)))
	}
	post := func(f Frame) Frame {
		t.Helper()
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/fft/bin", "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		raw, err := readAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("decoding response frame: %v", err)
		}
		return out
	}
	fwd := post(Frame{Kind: KindForward, Complex: in})
	if fwd.Kind != KindForward || len(fwd.Complex) != n {
		t.Fatalf("forward frame kind=%v len=%d", fwd.Kind, len(fwd.Complex))
	}
	back := post(Frame{Kind: KindInverse, Complex: fwd.Complex})
	for i := range in {
		d := back.Complex[i] - in[i]
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("sample %d drifted by %v", i, d)
		}
	}
}

// TestCoalescing proves concurrent same-shape requests merge into one
// TransformBatch dispatch with no timer: k requests that arrive while a
// batch of their shape runs must produce strictly fewer batches than
// requests and a mean occupancy above 1.
func TestCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 64})
	const k = 8
	g, codes := parkLeaderAndFollowers(t, s, ts.URL, 512, k)
	g.release()
	for _, c := range codes {
		if code := <-c; code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	batches := s.m.batches.Value()
	if batches >= k {
		t.Fatalf("batches = %d for %d requests — no coalescing", batches, k+1)
	}
	if mean := s.m.occupancy.Mean(); mean <= 1 {
		t.Fatalf("mean occupancy = %v, want > 1", mean)
	}
	t.Logf("%d requests coalesced into %d batches (mean occupancy %.1f)", k+1, batches, s.m.occupancy.Mean())
}

// TestBatchFormsBehindRunning pins the dispatch rule: the first request
// of an idle shape runs alone and at once; everything that arrives while
// it runs becomes exactly one follower batch.
func TestBatchFormsBehindRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 64})
	const k = 5
	g, codes := parkLeaderAndFollowers(t, s, ts.URL, 64, k)
	if got := s.m.batches.Value(); got != 0 {
		t.Fatalf("%d batches finished while the first is still parked", got)
	}
	g.release()
	for _, c := range codes {
		if code := <-c; code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	if got := g.sizes(); len(got) != 2 || got[0] != 1 || got[1] != k {
		t.Fatalf("batch occupancies = %v, want [1 %d]", got, k)
	}
	if got := s.m.batches.Value(); got != 2 {
		t.Fatalf("fft_batches_total = %d, want 2", got)
	}
	if got := s.m.occupancy.Mean(); got != float64(1+k)/2 {
		t.Fatalf("mean occupancy = %v, want %v", got, float64(1+k)/2)
	}
}

// TestMaxBatchCapsFollowers: more followers than MaxBatch split into
// ⌈k/MaxBatch⌉ batches, taken in arrival order.
func TestMaxBatchCapsFollowers(t *testing.T) {
	const n, k, maxBatch = 64, 8, 3
	s, ts := newTestServer(t, Config{MaxBatch: maxBatch})
	g, codes := parkLeaderAndFollowers(t, s, ts.URL, n, k)
	g.release()
	for _, c := range codes {
		if code := <-c; code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	if got, want := fmt.Sprint(g.sizes()), "[1 3 3 2]"; got != want {
		t.Fatalf("batch occupancies = %v, want %v", got, want)
	}
	// Follower i is the impulse at sample i, whose spectrum has phase
	// −2πi/n in bin 1: reading that back names each row's sender.
	g.mu.Lock()
	defer g.mu.Unlock()
	next := 0
	for _, batch := range g.batches {
		for _, row := range batch {
			at := int(math.Round(-math.Atan2(imag(row[1]), real(row[1]))*n/(2*math.Pi)+n)) % n
			if at != next {
				t.Fatalf("row %d of the dispatch order came from request %d", next, at)
			}
			next++
		}
	}
}

// TestShapeTableEmptiesWhenIdle: the coalescing table holds an entry
// only while a shape's batch runs, so serving many distinct lengths
// leaves nothing behind.
func TestShapeTableEmptiesWhenIdle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const shapes = 1000
	for n := DefaultMinN; n < DefaultMinN+shapes; n++ {
		enc, _ := EncodeFrame(Frame{Kind: KindForward, Complex: make([]complex128, n)})
		resp, err := http.Post(ts.URL+"/fft/bin", "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d", n, resp.StatusCode)
		}
	}
	waitFor(t, "executors to retire", func() bool { return len(s.sem) == 0 && s.tableLen() == 0 })
	if got := s.m.batches.Value(); got != shapes {
		t.Fatalf("served %d batches, want %d", got, shapes)
	}
}

func TestDeadlineExpiryReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := parkFirstBatch(s)
	defer g.release()
	leader := postAsync(ts.URL+"/fft", impulse(64, 0))
	<-g.started
	// The follower's deadline passes while it waits behind the parked
	// batch.
	if code := <-postAsync(ts.URL+"/fft?timeout=1ms", impulse(64, 1)); code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	if s.m.deadline.Value() == 0 {
		t.Fatal("deadline counter not incremented")
	}
	// When the running batch finishes, the executor must skip the
	// expired request and release its queue slot.
	g.release()
	if code := <-leader; code != http.StatusOK {
		t.Fatalf("leader status = %d, want 200", code)
	}
	waitFor(t, "expired request to be reaped", func() bool {
		return s.m.expired.Value() == 1 && len(s.sem) == 0
	})
}

func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueLimit: 2, MaxBatch: 64})
	// One running request and one queued behind it fill the queue.
	g, _ := parkLeaderAndFollowers(t, s, ts.URL, 64, 1)
	if len(s.sem) != 2 {
		t.Fatalf("queue depth = %d, want 2", len(s.sem))
	}
	if code := <-postAsync(ts.URL+"/fft", impulse(64, 2)); code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", code)
	}
	if s.m.shedQueue.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.m.shedQueue.Value())
	}
	g.release()
}

// TestDrain is the SIGTERM story minus the signal: requests queued
// behind a running batch must complete (not drop) once drain starts,
// Drain must wait for them, and new requests must shed with 503.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 64})
	const k = 3
	g, codes := parkLeaderAndFollowers(t, s, ts.URL, 128, k-1)

	s.StartDrain()
	if code := <-postAsync(ts.URL+"/fft", impulse(128, 0)); code != http.StatusServiceUnavailable {
		t.Fatalf("status while draining = %d, want 503", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	waitFor(t, "Drain to find work in flight", func() bool { return len(s.sem) == k })
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with %d requests in flight", err, k)
	default:
	}
	g.release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, c := range codes {
		select {
		case code := <-c:
			if code != http.StatusOK {
				t.Fatalf("in-flight request got %d during drain, want 200", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Drain returned before an admitted request was answered")
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hresp.StatusCode)
	}
}

// TestPanicIsolation: a panic inside one batch's executor answers that
// batch with 500 and leaves the server serving.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var once sync.Once
	s.execHook = func(batchKey, [][]complex128) {
		var fired bool
		once.Do(func() { fired = true })
		if fired {
			panic("injected failure")
		}
	}
	re := make([]float64, 64)
	body, _ := json.Marshal(jsonRequest{Kind: "forward", Re: re})
	resp, err := http.Post(ts.URL+"/fft", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned batch status = %d, want 500", resp.StatusCode)
	}
	if s.m.panics.Value() != 1 {
		t.Fatalf("panic counter = %d, want 1", s.m.panics.Value())
	}
	resp2, _ := postJSON(t, ts.URL, jsonRequest{Kind: "forward", Re: re})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200 (server must keep serving)", resp2.StatusCode)
	}
	// The executor returns its token after it has answered, so the reply
	// can arrive first: wait for the slot rather than read it once.
	waitFor(t, "the queue to empty after the panic (slot leaked)", func() bool { return len(s.sem) == 0 })
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 1 << 12})
	for name, req := range map[string]jsonRequest{
		"real odd length":    {Kind: "real", Re: make([]float64, 101)},
		"real tiny":          {Kind: "real", Re: make([]float64, 2)},
		"unknown kind":       {Kind: "sideways", Re: make([]float64, 64)},
		"too large":          {Kind: "forward", Re: make([]float64, 1<<13)},
		"too small":          {Kind: "forward", Re: make([]float64, 2)},
		"im length mismatch": {Kind: "forward", Re: make([]float64, 64), Im: make([]float64, 3)},
		"real with im":       {Kind: "real", Re: make([]float64, 64), Im: make([]float64, 64)},
	} {
		resp, _ := postJSON(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	// The same mistakes in the binary form (one count covers re and im,
	// so "im length mismatch" has no twin; an unknown kind is a bad kind
	// byte), and one only it can make: a payload of the other element type.
	for name, f := range map[string]Frame{
		"real odd length":      {Kind: KindReal, Real: make([]float64, 101)},
		"real tiny":            {Kind: KindReal, Real: make([]float64, 2)},
		"unknown kind":         {Kind: opCount, Complex: make([]complex128, 64)},
		"session op":           {Kind: OpSessCols, Complex: make([]complex128, 64)},
		"too large":            {Kind: KindForward, Complex: make([]complex128, 1<<13)},
		"too small":            {Kind: KindForward, Complex: make([]complex128, 2)},
		"real with im":         {Kind: KindReal, Complex: make([]complex128, 64)},
		"forward with samples": {Kind: KindForward, Real: make([]float64, 64)},
	} {
		h := FrameHeader{Op: f.Kind, Real: f.Real != nil, VecLen: len(f.Complex) + len(f.Real), VecCount: 1}
		enc := append(appendHeader(nil, h), make([]byte, h.payloadLen())...)
		resp, err := http.Post(ts.URL+"/fft/bin", "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("binary %s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestMetricsAfterKnownMix sends a fixed request mix and asserts the
// counters and the /metrics exposition agree with it.
func TestMetricsAfterKnownMix(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	re256 := make([]float64, 256)
	re256[0] = 1
	for i := 0; i < 3; i++ {
		if resp, _ := postJSON(t, ts.URL, jsonRequest{Kind: "forward", Re: re256}); resp.StatusCode != http.StatusOK {
			t.Fatalf("forward %d: status %d", i, resp.StatusCode)
		}
	}
	enc, _ := EncodeFrame(Frame{Kind: KindInverse, Complex: make([]complex128, 512)})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/fft/bin", "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary inverse %d: status %d", i, resp.StatusCode)
		}
	}
	if resp, _ := postJSON(t, ts.URL, jsonRequest{Kind: "forward", Re: make([]float64, 5)}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request: status %d, want 400", resp.StatusCode)
	}

	if got := s.m.requests.Value(); got != 6 {
		t.Errorf("requests_total = %d, want 6", got)
	}
	if got := s.m.ok.Value(); got != 5 {
		t.Errorf("responses_ok_total = %d, want 5", got)
	}
	if got := s.m.bad.Value(); got != 1 {
		t.Errorf("responses_bad_request_total = %d, want 1", got)
	}
	if got := s.m.batches.Value(); got != 5 {
		t.Errorf("batches_total = %d, want 5 (sequential requests never coalesce)", got)
	}
	if got := s.m.occupancy.Count(); got != 5 {
		t.Errorf("occupancy observations = %d, want 5", got)
	}

	// A handler records its write time after the write, so the last
	// reply can be in the client's hands before its Observe has run.
	for deadline := time.Now().Add(5 * time.Second); s.m.writeSec.Count() < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := readAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, line := range []string{
		"fft_requests_total 6",
		"fft_responses_ok_total 5",
		"fft_responses_bad_request_total 1",
		"fft_batches_total 5",
		"fft_read_seconds_count 6",  // every body that was read, the refused one too
		"fft_write_seconds_count 5", // every answer that was written
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("/metrics missing %q:\n%s", line, text)
		}
	}
	// The pass instruments are registered ahead of the first batch that
	// reports them, for every kernel a plan may run.
	for _, name := range []string{"fft_batch_occupancy_mean", "fft_queue_depth", "plan_cache_len", "engine_batch_occupancy_count", "fft_request_seconds_p99",
		"engine_pass_stage_radix4_seconds_count", "engine_pass_stage_splitradix_seconds_count"} {
		if !strings.Contains(text, name+" ") {
			t.Errorf("/metrics missing instrument %q", name)
		}
	}
}

// TestConcurrentMixedSizes hammers the server with many goroutines and
// several shapes at once — the -race exercise for the whole pipeline.
func TestConcurrentMixedSizes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 16})
	sizes := []int{64, 128, 256}
	const perSize = 6
	var wg sync.WaitGroup
	errs := make(chan error, len(sizes)*perSize)
	for _, n := range sizes {
		for i := 0; i < perSize; i++ {
			wg.Add(1)
			go func(n, i int) {
				defer wg.Done()
				re := make([]float64, n)
				re[i%n] = 1
				kind := "forward"
				if i%2 == 1 {
					kind = "inverse"
				}
				body, _ := json.Marshal(jsonRequest{Kind: kind, Re: re})
				resp, err := http.Post(ts.URL+"/fft", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("n=%d: status %d", n, resp.StatusCode)
				}
			}(n, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRunBatchNamesBadBatchElement: a malformed row in a batch dispatch
// comes back from the plan as an error that wraps ErrLengthMismatch and
// names the offending batch element — the classification that answers
// 400 instead of 500 — with no panic to recover.
func TestRunBatchNamesBadBatchElement(t *testing.T) {
	s := New(Config{})
	rows := [][]complex128{make([]complex128, 64), make([]complex128, 32)} // row 1 is bad
	err := s.run(batchKey{n: 64, kind: KindForward}, rows, nil)
	if err == nil {
		t.Fatal("run accepted a malformed batch row")
	}
	if !errors.Is(err, codeletfft.ErrLengthMismatch) {
		t.Fatalf("error %v does not wrap ErrLengthMismatch", err)
	}
	if !strings.Contains(err.Error(), "batch element 1") {
		t.Fatalf("error %q does not name batch element 1", err)
	}
	if got := s.m.panics.Value(); got != 0 {
		t.Fatalf("panics counter = %d, want 0: a bad row is a returned error", got)
	}
	if status, _ := s.classify(err); status != http.StatusBadRequest {
		t.Fatalf("classified as %d, want 400", status)
	}
}

// TestJSONAndBinaryAgreeBitwise: the two wire forms are codecs around
// one pipeline, so the same request gets the same bits back on both, and
// a shape error gets the same 400 body.
func TestJSONAndBinaryAgreeBitwise(t *testing.T) {
	const maxN = 1 << 10
	_, ts := newTestServer(t, Config{MaxN: maxN})
	post := func(path, ctype string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := readAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	// both sends f in both wire forms and returns the two answers.
	both := func(f Frame) (jStatus int, jBody []byte, bStatus int, bBody []byte) {
		t.Helper()
		req := jsonRequest{Kind: f.Kind.String(), Re: f.Real}
		if f.Complex != nil {
			req.Re = make([]float64, len(f.Complex))
			req.Im = make([]float64, len(f.Complex))
			for i, v := range f.Complex {
				req.Re[i], req.Im[i] = real(v), imag(v)
			}
		}
		jreq, _ := json.Marshal(req)
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		jStatus, jBody = post("/fft", "application/json", jreq)
		bStatus, bBody = post("/fft/bin", "application/octet-stream", enc)
		return
	}
	payload := func(kind Kind, n int) Frame {
		f := Frame{Kind: kind}
		switch kind {
		case KindReal:
			f.Real = make([]float64, n)
			for i := range f.Real {
				f.Real[i] = math.Sin(float64(i)) + 0.1*float64(i%3)
			}
		case KindRealInverse:
			f.Complex = make([]complex128, n/2+1)
			for i := range f.Complex {
				f.Complex[i] = complex(math.Cos(float64(i)), math.Sin(float64(2*i)))
			}
			f.Complex[0], f.Complex[n/2] = complex(real(f.Complex[0]), 0), complex(real(f.Complex[n/2]), 0)
		default:
			f.Complex = make([]complex128, n)
			for i := range f.Complex {
				f.Complex[i] = complex(math.Sin(float64(i)), math.Cos(float64(3*i)))
			}
		}
		return f
	}
	for _, kind := range []Kind{KindForward, KindInverse, KindReal, KindRealInverse} {
		// Power of two, mixed radix (2^4·3 and 2^2·3: real lengths need
		// only be even), Bluestein (2·11; the real kinds' half plan is
		// then the 11-point Bluestein).
		for _, n := range []int{64, 48, 12, 22} {
			js, jb, bs, bb := both(payload(kind, n))
			if js != http.StatusOK || bs != http.StatusOK {
				t.Fatalf("%s n=%d: status json=%d binary=%d", kind, n, js, bs)
			}
			var jr jsonResponse
			if err := json.Unmarshal(jb, &jr); err != nil {
				t.Fatal(err)
			}
			bf, err := DecodeFrame(bb)
			if err != nil {
				t.Fatal(err)
			}
			if jr.N != n || bf.Kind != kind {
				t.Fatalf("%s n=%d: json n=%d, binary kind=%s", kind, n, jr.N, bf.Kind)
			}
			if kind == KindRealInverse {
				if len(jr.Re) != len(bf.Real) || len(jr.Im) != 0 {
					t.Fatalf("%s n=%d: json %d/%d values, binary %d", kind, n, len(jr.Re), len(jr.Im), len(bf.Real))
				}
				for i, v := range bf.Real {
					if math.Float64bits(v) != math.Float64bits(jr.Re[i]) {
						t.Fatalf("%s n=%d sample %d: json %v, binary %v", kind, n, i, jr.Re[i], v)
					}
				}
				continue
			}
			if len(jr.Re) != len(bf.Complex) || len(jr.Im) != len(bf.Complex) {
				t.Fatalf("%s n=%d: json %d/%d values, binary %d", kind, n, len(jr.Re), len(jr.Im), len(bf.Complex))
			}
			for i, v := range bf.Complex {
				if math.Float64bits(real(v)) != math.Float64bits(jr.Re[i]) || math.Float64bits(imag(v)) != math.Float64bits(jr.Im[i]) {
					t.Fatalf("%s n=%d bin %d: json %v%+vi, binary %v", kind, n, i, jr.Re[i], jr.Im[i], v)
				}
			}
		}
	}
	for name, f := range map[string]Frame{
		"below MinN":        payload(KindForward, 3),
		"above MaxN":        payload(KindInverse, maxN+1),
		"real odd length":   payload(KindReal, 13),
		"real below MinN":   payload(KindReal, 6),
		"real-inverse tiny": {Kind: KindRealInverse, Complex: make([]complex128, 2)},
	} {
		js, jb, bs, bb := both(f)
		if js != http.StatusBadRequest || bs != http.StatusBadRequest {
			t.Errorf("%s: status json=%d binary=%d, want 400 on both", name, js, bs)
		}
		if !bytes.Equal(jb, bb) {
			t.Errorf("%s: 400 bodies differ:\n json:   %q\n binary: %q", name, jb, bb)
		}
	}
}
