// End-to-end tests of the streaming spectrogram endpoint: NDJSON
// framing, spectral correctness against the reference DFT, shape
// validation, and the drain e2e — a stream admitted before drain
// finishes every frame, and zero in-flight requests are severed.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"codeletfft"
	"codeletfft/internal/fft"
)

// postSTFT posts one spectrogram request and parses the NDJSON stream.
// It returns the response status, the header line, the frames (indexed
// by frame number), and the trailing error line's message if one came.
func postSTFT(t *testing.T, url string, req stftRequest) (int, stftHeader, map[int]stftFrame, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/fft/stft", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, stftHeader{}, nil, ""
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("stream ended before the header line: %v", sc.Err())
	}
	var hdr stftHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header line %q: %v", sc.Text(), err)
	}
	frames := make(map[int]stftFrame)
	for sc.Scan() {
		var e stftError
		if json.Unmarshal(sc.Bytes(), &e) == nil && e.Error != "" {
			return resp.StatusCode, hdr, frames, e.Error
		}
		var f stftFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("frame line %q: %v", sc.Text(), err)
		}
		frames[f.I] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp.StatusCode, hdr, frames, ""
}

// TestSTFTEndpoint checks the served spectrogram bin-for-bin against
// the reference DFT of each windowed frame, for a power-of-two and a
// mixed-radix frame length.
func TestSTFTEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, frame := range []int{16, 12} {
		hop := frame / 2
		samples := make([]float64, 5*frame)
		for i := range samples {
			samples[i] = math.Sin(2*math.Pi*3*float64(i)/float64(frame)) + 0.3*float64(i%5)
		}
		status, hdr, frames, streamErr := postSTFT(t, ts.URL, stftRequest{
			Frame: frame, Hop: hop, Window: "hann", Samples: samples,
		})
		if status != http.StatusOK {
			t.Fatalf("frame=%d: status = %d, want 200", frame, status)
		}
		if streamErr != "" {
			t.Fatalf("frame=%d: stream error %q", frame, streamErr)
		}
		wantFrames := 1 + (len(samples)-frame)/hop
		if hdr.Frames != wantFrames || hdr.Bins != frame || hdr.Hop != hop {
			t.Fatalf("frame=%d: header = %+v, want frames=%d bins=%d hop=%d",
				frame, hdr, wantFrames, frame, hop)
		}
		if len(frames) != wantFrames {
			t.Fatalf("frame=%d: got %d frame lines, want %d", frame, len(frames), wantFrames)
		}
		win := codeletfft.HannWindow(frame)
		for fi := 0; fi < wantFrames; fi++ {
			x := make([]complex128, frame)
			for i := range x {
				x[i] = complex(samples[fi*hop+i]*win[i], 0)
			}
			want := fft.DFT(x)
			got, ok := frames[fi]
			if !ok {
				t.Fatalf("frame=%d: frame %d missing from stream", frame, fi)
			}
			for k := range want {
				d := math.Hypot(got.Re[k]-real(want[k]), got.Im[k]-imag(want[k]))
				if d > 1e-9*float64(frame) {
					t.Fatalf("frame=%d: frame %d bin %d diverged by %g", frame, fi, k, d)
				}
			}
		}
	}
}

// TestSTFTBadRequests: malformed spectrogram shapes are client errors.
func TestSTFTBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 1 << 12})
	for name, req := range map[string]stftRequest{
		"zero frame":     {Frame: 0, Hop: 1},
		"oversize frame": {Frame: 1 << 13, Hop: 1},
		"zero hop":       {Frame: 16, Hop: 0},
		"hop over frame": {Frame: 16, Hop: 17},
		"unknown window": {Frame: 16, Hop: 8, Window: "hamming"},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/fft/stft", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSTFTEmptySignal: a signal shorter than one frame streams a
// zero-frame spectrogram, not an error.
func TestSTFTEmptySignal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, hdr, frames, streamErr := postSTFT(t, ts.URL, stftRequest{
		Frame: 16, Hop: 8, Samples: make([]float64, 10),
	})
	if status != http.StatusOK || streamErr != "" {
		t.Fatalf("status = %d, err = %q, want 200 with no error", status, streamErr)
	}
	if hdr.Frames != 0 || len(frames) != 0 {
		t.Fatalf("got %d/%d frames, want 0", hdr.Frames, len(frames))
	}
}

// TestSTFTStreamSurvivesDrain is the graceful-drain e2e: a spectrogram
// stream admitted before drain keeps flowing through drain and delivers
// every frame — zero severed in-flight requests — while a stream
// arriving after drain starts is refused with 503.
func TestSTFTStreamSurvivesDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Enough samples for several chunks, so some are still unsent when
	// drain begins: 4·stftChunkFrames frames at frame=8, hop=1.
	const frame, hop = 8, 1
	nf := 4 * stftChunkFrames
	samples := make([]float64, frame+(nf-1)*hop)
	for i := range samples {
		samples[i] = math.Cos(2 * math.Pi * float64(i) / 32)
	}

	// The executor hook parks the stream's first chunk until the test
	// has flipped the server into draining mode.
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s.execHook = func(key batchKey, _ [][]complex128) {
		if key == (batchKey{n: frame, kind: KindForward}) {
			once.Do(func() { close(started) })
			<-gate
		}
	}

	type result struct {
		status    int
		frames    map[int]stftFrame
		streamErr string
	}
	done := make(chan result, 1)
	go func() {
		status, _, frames, streamErr := postSTFT(t, ts.URL, stftRequest{
			Frame: frame, Hop: hop, Window: "hann", Samples: samples,
		})
		done <- result{status, frames, streamErr}
	}()

	<-started
	s.StartDrain()
	close(gate)

	// A stream arriving after drain started is shed, not queued.
	body, _ := json.Marshal(stftRequest{Frame: frame, Hop: hop, Samples: samples})
	resp, err := http.Post(ts.URL+"/fft/stft", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain stream status = %d, want 503", resp.StatusCode)
	}

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight stream status = %d, want 200", r.status)
	}
	if r.streamErr != "" {
		t.Fatalf("in-flight stream severed by drain: %q", r.streamErr)
	}
	if len(r.frames) != nf {
		t.Fatalf("in-flight stream delivered %d frames through drain, want %d", len(r.frames), nf)
	}

	// Drain completes only after the stream's admission slot is
	// released — the queue must be empty, nothing leaked.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after stream: %v", err)
	}
	if got := len(s.sem); got != 0 {
		t.Fatalf("queue depth = %d after drained stream, want 0", got)
	}
}

// rampSignal is a deterministic real signal giving nf frames.
func rampSignal(frame, hop, nf int) []float64 {
	samples := make([]float64, frame+(nf-1)*hop)
	for i := range samples {
		samples[i] = math.Sin(float64(i)/3) + 0.01*float64(i%7)
	}
	return samples
}

// TestSTFTQueueLimitOne: a stream's chunks ride the stream's own
// admission token, so a lone stream completes even when the queue holds
// exactly one slot (it used to wait for a second slot behind itself
// until its deadline, delivering no frames).
func TestSTFTQueueLimitOne(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueLimit: 1, RequestTimeout: 2 * time.Second})
	const frame, hop, nf = 16, 8, 7
	status, hdr, frames, streamErr := postSTFT(t, ts.URL, stftRequest{
		Frame: frame, Hop: hop, Samples: rampSignal(frame, hop, nf),
	})
	if status != http.StatusOK || streamErr != "" {
		t.Fatalf("status = %d, stream error %q", status, streamErr)
	}
	if hdr.Frames != nf || len(frames) != nf {
		t.Fatalf("delivered %d of %d frames", len(frames), hdr.Frames)
	}
	if got := s.m.deadline.Value(); got != 0 {
		t.Fatalf("deadline counter = %d, want 0", got)
	}
	if got := len(s.sem); got != 0 {
		t.Fatalf("queue depth = %d after the stream, want 0", got)
	}
}

// TestSTFTConcurrentStreamsAtQueueLimit: k streams fill a k-slot queue
// and still all finish — none of them needs a slot beyond its own. The
// first chunk is parked until all k streams hold their slot, the state
// in which streams that wanted a second slot per chunk starved each
// other.
func TestSTFTConcurrentStreamsAtQueueLimit(t *testing.T) {
	const k = 4
	s, ts := newTestServer(t, Config{QueueLimit: k, RequestTimeout: 5 * time.Second})
	g := parkFirstBatch(s)
	defer g.release()
	const frame, hop = 8, 1
	nf := 3 * stftChunkFrames
	samples := rampSignal(frame, hop, nf)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, frames, streamErr := postSTFT(t, ts.URL, stftRequest{Frame: frame, Hop: hop, Samples: samples})
			if status != http.StatusOK || streamErr != "" || len(frames) != nf {
				t.Errorf("stream: status %d, error %q, %d/%d frames", status, streamErr, len(frames), nf)
			}
		}()
	}
	<-g.started
	waitFor(t, "every stream to hold its slot", func() bool { return len(s.sem) == k })
	g.release()
	wg.Wait()
}

// TestSTFTChunkFailureIsNotADeadline: a chunk that fails in the executor
// is classified like any other request — an engine fault counts as an
// error, not as a deadline — and the server keeps serving.
func TestSTFTChunkFailureIsNotADeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const frame, hop, nf = 16, 8, 5
	var once sync.Once
	s.execHook = func(batchKey, [][]complex128) {
		fire := false
		once.Do(func() { fire = true })
		if fire {
			panic("injected chunk failure")
		}
	}
	req := stftRequest{Frame: frame, Hop: hop, Samples: rampSignal(frame, hop, nf)}
	status, _, frames, streamErr := postSTFT(t, ts.URL, req)
	if status != http.StatusOK || len(frames) != 0 || !strings.Contains(streamErr, "injected chunk failure") {
		t.Fatalf("status %d, %d frames, trailing error %q; want 200, 0 frames and the panic message", status, len(frames), streamErr)
	}
	if got := s.m.internal.Value(); got != 1 {
		t.Errorf("fft_responses_error_total = %d, want 1", got)
	}
	if got := s.m.deadline.Value(); got != 0 {
		t.Errorf("fft_responses_deadline_total = %d, want 0", got)
	}
	if got := s.m.panics.Value(); got != 1 {
		t.Errorf("fft_panics_total = %d, want 1", got)
	}
	if status, _, frames, streamErr := postSTFT(t, ts.URL, req); status != http.StatusOK || streamErr != "" || len(frames) != nf {
		t.Fatalf("after the failure: status %d, error %q, %d/%d frames", status, streamErr, len(frames), nf)
	}
	if got := len(s.sem); got != 0 {
		t.Fatalf("queue depth = %d, want 0 (slot leaked)", got)
	}
}

// TestSTFTCoalescesWithForward: a spectrogram chunk is a forward request
// with many rows, so it shares a dispatch with plain forward requests of
// the frame length that queued behind the same running batch.
func TestSTFTCoalescesWithForward(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const frame, hop, nf = 16, 4, 6
	key := batchKey{n: frame, kind: KindForward}
	g, codes := parkLeaderAndFollowers(t, s, ts.URL, frame, 1)

	type result struct {
		status    int
		frames    map[int]stftFrame
		streamErr string
	}
	samples := rampSignal(frame, hop, nf)
	stream := make(chan result, 1)
	go func() {
		status, _, frames, streamErr := postSTFT(t, ts.URL, stftRequest{Frame: frame, Hop: hop, Samples: samples})
		stream <- result{status, frames, streamErr}
	}()
	waitFor(t, "chunk to queue behind the running batch", func() bool { return s.queued(key) == 2 })
	g.release()

	for _, c := range codes {
		if code := <-c; code != http.StatusOK {
			t.Fatalf("forward request status %d", code)
		}
	}
	r := <-stream
	if r.status != http.StatusOK || r.streamErr != "" || len(r.frames) != nf {
		t.Fatalf("stream: status %d, error %q, %d/%d frames", r.status, r.streamErr, len(r.frames), nf)
	}
	// Two dispatches: the parked leader alone, then the forward follower
	// and the chunk's frames together, as two requests.
	if got := g.sizes(); len(got) != 2 || got[0] != 1 || got[1] != 1+nf {
		t.Fatalf("dispatch row counts = %v, want [1 %d]", got, 1+nf)
	}
	if got := s.m.occupancy.Mean(); got != 1.5 {
		t.Fatalf("mean occupancy = %v, want 1.5 (batches of 1 and 2 requests)", got)
	}
	for fi := 0; fi < nf; fi++ {
		x := make([]complex128, frame)
		for i := range x {
			x[i] = complex(samples[fi*hop+i], 0)
		}
		want := fft.DFT(x)
		for k := range want {
			if d := math.Hypot(r.frames[fi].Re[k]-real(want[k]), r.frames[fi].Im[k]-imag(want[k])); d > 1e-9*frame {
				t.Fatalf("frame %d bin %d diverged by %g", fi, k, d)
			}
		}
	}
}
