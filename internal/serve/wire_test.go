package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// postBin posts an encoded frame to /fft/bin<query> and returns the
// status and, for a 200, the decoded reply.
func postBin(url string, enc []byte) (int, Frame, error) {
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		return 0, Frame{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, Frame{}, err
	}
	f, err := DecodeFrame(raw)
	return resp.StatusCode, f, err
}

// TestBinaryReplyIsNotChunked: over real loopback HTTP a /fft/bin reply
// announces its length, and a request that does not — chunked, as a
// client streaming from a pipe sends it — is served all the same.
func TestBinaryReplyIsNotChunked(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 4096 // a reply net/http would chunk if left to decide
	in := make([]complex128, n)
	in[1] = 1
	enc, err := EncodeFrame(Frame{Kind: KindForward, Complex: in})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]io.Reader{
		"declared length": bytes.NewReader(enc),
		"chunked request": struct{ io.Reader }{bytes.NewReader(enc)}, // a type NewRequest cannot size
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/fft/bin", body)
		if err != nil {
			t.Fatal(err)
		}
		if chunked := name == "chunked request"; chunked != (req.ContentLength <= 0) {
			t.Fatalf("%s: request Content-Length %d", name, req.ContentLength)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", name, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(headerLen+16*n) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: reply Content-Length %d, Transfer-Encoding %v; want %d and none",
				name, resp.ContentLength, resp.TransferEncoding, headerLen+16*n)
		}
		out, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, v := range out.Complex { // an impulse at 1: unit magnitude everywhere
			if m := math.Hypot(real(v), imag(v)); math.Abs(m-1) > 1e-9 {
				t.Fatalf("%s: bin %d magnitude %g, want 1", name, k, m)
			}
		}
	}
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(p []byte) (int, error) { return len(p), nil }
func (d discard) WriteHeader(int)             {}

// TestBinarySteadyStateAllocs guards the wire path's point: once the
// pools and the plan are warm, a 65536-point request (1 MiB each way)
// is served without allocating anything its size — the payload is read
// into a pooled buffer, transformed there and written from there. The
// parent allocated over 3 MiB here.
func TestBinarySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	s := New(Config{})
	enc, err := EncodeFrame(Frame{Kind: KindForward, Complex: make([]complex128, 1<<16)})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		w := discard{http.Header{}}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/fft/bin", bytes.NewReader(enc)))
		if got := w.h.Get("Content-Length"); got != fmt.Sprint(len(enc)) {
			t.Fatalf("reply Content-Length %q, want %d", got, len(enc))
		}
	}
	// A collection inside the measured window empties the sync.Pools
	// and bills the refill (two 1 MiB buffers) to a request.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		serve()
	}
	// One request in eleven may be an outlier: the executor lets go of a
	// request's buffers on its own goroutine, and a Put that lands in
	// another P's private sync.Pool slot is invisible to the next Get,
	// so now and then a request pays a fresh 1 MiB buffer (the plain mean
	// of ten failed one run in eight, at the parent too). The largest
	// sample is set aside; the mean of the other ten keeps the bound.
	const rounds = 10
	var before, after runtime.MemStats
	var sum, most uint64
	for i := 0; i < rounds+1; i++ {
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		d := after.TotalAlloc - before.TotalAlloc
		sum += d
		most = max(most, d)
	}
	per := (sum - most) / rounds
	t.Logf("a warm 65536-point request allocates %d bytes (largest of %d set aside: %d)", per, rounds+1, most)
	if per >= 64<<10 {
		t.Fatalf("want < 64 KiB")
	}
}

// TestBuffersReturnOnEveryExit drives /fft/bin through every way a
// request can end — served, refused for its shape, its frame, its
// timeout or a full queue, and timed out both while queued and while
// its own batch is running — from several clients at once, and checks
// that every answer is the right one and that the pools end where they
// started. Under -race a returned buffer is poisoned (ReleaseComplex),
// so a buffer given back while the executor still held it, or seen by
// two requests, is a reported race or a wrong answer here rather than
// luck.
func TestBuffersReturnOnEveryExit(t *testing.T) {
	_, out0 := PoolsOutstanding()
	s, ts := newTestServer(t, Config{QueueLimit: 2})
	url := ts.URL + "/fft/bin"
	_, mixed := newTestServer(t, Config{}) // room in the queue for four clients
	frame := func(kind Kind, n, at int) []byte {
		f := Frame{Kind: kind}
		switch kind {
		case KindReal:
			f.Real = make([]float64, n)
			f.Real[at] = 1
		case KindRealInverse:
			f.Complex = make([]complex128, n/2+1)
			f.Complex[at] = 1
		default:
			f.Complex = make([]complex128, n)
			f.Complex[at] = 1
		}
		enc, _ := EncodeFrame(f) // one payload, a known kind: it encodes
		return enc
	}
	status := func(url string, enc []byte) int {
		code, _, err := postBin(url, enc)
		if err != nil {
			t.Error(err)
		}
		return code
	}

	// A parked leader whose deadline fires while its batch is running, a
	// follower that expires in the queue behind it, and — the two of
	// them still holding the queue's two tokens — a third that is shed.
	g := parkFirstBatch(s)
	t.Cleanup(g.release)
	leader := make(chan int, 1)
	go func() {
		code, _, _ := postBin(url+"?timeout=50ms", frame(KindForward, 64, 0))
		leader <- code
	}()
	<-g.started
	if code := status(url+"?timeout=1ms", frame(KindForward, 64, 1)); code != http.StatusGatewayTimeout {
		t.Fatalf("queued follower: status %d, want 504", code)
	}
	if code := status(url, frame(KindForward, 64, 2)); code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", code)
	}
	if code := <-leader; code != http.StatusGatewayTimeout {
		t.Fatalf("leader: status %d, want 504", code)
	}
	if _, out := PoolsOutstanding(); out-out0 != 2 {
		t.Fatalf("%d buffers outstanding with two timed-out requests still the executor's, want 2", out-out0)
	}
	g.release()
	waitFor(t, "the executor to finish with the timed-out requests", func() bool { return len(s.sem) == 0 })

	// 200 requests from four clients: every kind, three plan families,
	// and between them every other refusal.
	url = mixed.URL + "/fft/bin"
	truncated := frame(KindForward, 64, 0)[:headerLen+40]
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := []int{64, 48, 22, 256}[(i+c)%4]
				at := (7*i + c) % 11
				switch i % 10 {
				case 3: // a shape the daemon does not serve: refused on the header
					if code := status(url, frame(KindForward, 4, 0)); code != http.StatusBadRequest {
						t.Errorf("below MinN: status %d, want 400", code)
					}
				case 5: // refused after the payload was read
					if code := status(url+"?timeout=never", frame(KindInverse, n, at)); code != http.StatusBadRequest {
						t.Errorf("bad timeout: status %d, want 400", code)
					}
				case 7: // no declared length, and the payload stops short
					resp, err := http.Post(url, "application/octet-stream", struct{ io.Reader }{bytes.NewReader(truncated)})
					if err != nil {
						t.Error(err)
						continue
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						t.Errorf("short payload: status %d, want 400", resp.StatusCode)
					}
				default:
					kind := Kind(i % int(kindCount))
					code, out, err := postBin(url, frame(kind, n, at))
					if err != nil || code != http.StatusOK {
						t.Errorf("%s n=%d: status %d, err %v", kind, n, code, err)
						continue
					}
					if err := checkImpulseAnswer(kind, n, at, out); err != nil {
						t.Errorf("%s n=%d impulse at %d: %v", kind, n, at, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	waitFor(t, "every buffer to return to the pools", func() bool {
		_, out := PoolsOutstanding()
		return out == out0
	})
}

// checkImpulseAnswer verifies the answer to a request whose payload was
// a unit impulse at index at, which every kind answers in closed form.
func checkImpulseAnswer(kind Kind, n, at int, out Frame) error {
	near := func(got, want complex128) bool { return math.Hypot(real(got-want), imag(got-want)) <= 1e-9 }
	phase := func(k int, sign float64) complex128 {
		s, c := math.Sincos(sign * 2 * math.Pi * float64(k*at%n) / float64(n))
		return complex(c, s)
	}
	switch kind {
	case KindForward, KindInverse, KindReal:
		bins, sign, scale := n, -1.0, complex(1, 0)
		if kind == KindInverse {
			sign, scale = 1, complex(1/float64(n), 0)
		}
		if kind == KindReal {
			bins = n/2 + 1
		}
		if len(out.Complex) != bins {
			return fmt.Errorf("%d bins, want %d", len(out.Complex), bins)
		}
		for k, v := range out.Complex {
			if want := scale * phase(k, sign); !near(v, want) {
				return fmt.Errorf("bin %d = %v, want %v", k, v, want)
			}
		}
	case KindRealInverse:
		// A lone bin at (0 < at < n/2) is a cosine of weight 2/n; DC is a
		// constant 1/n.
		if len(out.Real) != n {
			return fmt.Errorf("%d samples, want %d", len(out.Real), n)
		}
		w := 2.0
		if at == 0 {
			w = 1
		}
		for j, v := range out.Real {
			if want := w / float64(n) * math.Cos(2*math.Pi*float64(j*at%n)/float64(n)); math.Abs(v-want) > 1e-9 {
				return fmt.Errorf("sample %d = %v, want %v", j, v, want)
			}
		}
	}
	return nil
}
