// The convolution and spectrogram sections of fftcheck: overlap-save
// Convolve against the O(N·K) direct reference across segmentation
// regimes, the streaming filter against the batch path, STFT frames
// against the reference DFT with the Hann COLA reconstruction — and a
// live served-endpoint check that streams a spectrogram out of an
// in-process fftserved core while the server drains, proving zero
// in-flight requests are severed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"codeletfft"
	"codeletfft/internal/fft"
	"codeletfft/internal/report"
	"codeletfft/internal/serve"
)

func randConvSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// checkConvolution verifies the public convolution API: Convolve
// against fft.DirectConvolve across the segmentation regimes, and the
// streaming filter against the batch result under ragged chunking.
// Returns the failure count.
func checkConvolution(seed int64, workers int) int {
	shapes := []struct {
		name string
		n, k int
	}{
		{"pow2 signal, FIR kernel", 1 << 12, 31},
		{"composite signal", 360, 25},
		{"prime signal", 257, 13},
		{"kernel beyond one segment", 1 << 12, 1 << 10},
		{"kernel longer than signal", 100, 300},
	}
	tb := &report.Table{Headers: []string{"shape", "N", "K", "segments", "max rel error", "stream rel error"}}
	failures := 0
	for _, sh := range shapes {
		p, err := codeletfft.NewConvPlan(sh.n, sh.k,
			codeletfft.WithWorkers(workers), codeletfft.WithThreshold(1))
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "fftcheck: conv %s: %v\n", sh.name, err)
			continue
		}
		rng := rand.New(rand.NewSource(seed + int64(sh.n)*31 + int64(sh.k)))
		x := randConvSignal(rng, sh.n)
		h := randConvSignal(rng, sh.k)
		got := make([]complex128, p.OutLen())
		if err := p.Convolve(got, x, h); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "fftcheck: conv %s: %v\n", sh.name, err)
			continue
		}
		want := make([]complex128, sh.n+sh.k-1)
		fft.DirectConvolve(want, x, h)
		var peak, worst float64
		for i := range want {
			peak = math.Max(peak, cmplx.Abs(want[i]))
			worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
		}
		if peak == 0 {
			peak = 1
		}
		rel := worst / peak
		if rel > 1e-9 {
			failures++
			fmt.Fprintf(os.Stderr, "fftcheck: conv %s: relative error %.3g\n", sh.name, rel)
		}

		// The streaming filter over ragged chunks must reproduce the
		// batch result sample for sample.
		f, err := p.FilterStream(h)
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "fftcheck: conv %s stream: %v\n", sh.name, err)
			continue
		}
		streamed := make([]complex128, 0, sh.n)
		for off := 0; off < sh.n; {
			c := min(1+rng.Intn(2*sh.k), sh.n-off)
			dst := make([]complex128, c)
			if err := f.Process(dst, x[off:off+c]); err != nil {
				failures++
				fmt.Fprintf(os.Stderr, "fftcheck: conv %s stream: %v\n", sh.name, err)
				break
			}
			streamed = append(streamed, dst...)
			off += c
		}
		var streamWorst float64
		for i := range streamed {
			streamWorst = math.Max(streamWorst, cmplx.Abs(streamed[i]-want[i]))
		}
		streamRel := streamWorst / peak
		if streamRel > 1e-9 {
			failures++
			fmt.Fprintf(os.Stderr, "fftcheck: conv %s stream: relative error %.3g\n", sh.name, streamRel)
		}
		tb.AddRow(sh.name, sh.n, sh.k, p.Segments(),
			fmt.Sprintf("%.3g", rel), fmt.Sprintf("%.3g", streamRel))
	}
	fmt.Printf("\noverlap-save convolution vs direct O(N·K) reference:\n\n")
	if err := tb.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fftcheck:", err)
		os.Exit(1)
	}
	return failures
}

// Wire shapes of the served spectrogram stream (POST /fft/stft).
type stftWireRequest struct {
	Frame   int       `json:"frame"`
	Hop     int       `json:"hop"`
	Window  string    `json:"window"`
	Samples []float64 `json:"samples"`
}

type stftWireLine struct {
	Frames int       `json:"frames"`
	I      int       `json:"i"`
	Re     []float64 `json:"re"`
	Im     []float64 `json:"im"`
	Error  string    `json:"error"`
}

// checkSpectrogram verifies the STFT plan against the reference DFT
// (with the Hann COLA reconstruction identity), then exercises the
// served endpoint under graceful drain: a stream admitted before the
// drain begins must deliver every frame, a stream arriving after must
// shed with 503, and Drain must complete with an empty queue. Returns
// the failure count.
func checkSpectrogram(seed int64, workers int) int {
	failures := 0
	const frame, hop = 256, 64
	win := codeletfft.HannWindow(frame)
	p, err := codeletfft.NewSTFTPlan(frame, hop, win,
		codeletfft.WithWorkers(workers), codeletfft.WithThreshold(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fftcheck: stft: %v\n", err)
		return 1
	}
	rng := rand.New(rand.NewSource(seed + 99))
	x := make([]float64, 40*hop+frame)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	nf := p.NumFrames(len(x))
	frames := make([][]complex128, nf)
	for i := range frames {
		frames[i] = make([]complex128, frame)
	}
	if err := p.Transform(frames, x); err != nil {
		fmt.Fprintf(os.Stderr, "fftcheck: stft: %v\n", err)
		return 1
	}
	var worst float64
	for f := 0; f < nf; f++ {
		ref := make([]complex128, frame)
		for i := range ref {
			ref[i] = complex(x[f*hop+i]*win[i], 0)
		}
		want := codeletfft.DFT(ref)
		for k := range want {
			worst = math.Max(worst, cmplx.Abs(frames[f][k]-want[k]))
		}
	}
	if worst > 1e-9*float64(frame) {
		failures++
		fmt.Fprintf(os.Stderr, "fftcheck: stft vs DFT: worst error %.3g\n", worst)
	}
	fmt.Printf("\nspectrogram: %d frames of %d bins vs reference DFT, worst error %.3g\n", nf, frame, worst)

	failures += checkServedSpectrogramDrain(seed)
	return failures
}

// checkServedSpectrogramDrain runs the drain e2e against a live serving
// core: stream a spectrogram large enough to outlast socket buffering,
// flip the server into draining mode after the first frame arrives, and
// require every remaining frame to flow — zero severed in-flight
// requests — while new work sheds with 503.
func checkServedSpectrogramDrain(seed int64) int {
	const frame, hop = 256, 16
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(seed + 7))
	// ~1000 frames → a multi-megabyte NDJSON body, far beyond loopback
	// socket buffering, so the handler cannot finish before the drain
	// begins below.
	samples := make([]float64, frame+1000*hop)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	wantFrames := 1 + (len(samples)-frame)/hop

	body, _ := json.Marshal(stftWireRequest{Frame: frame, Hop: hop, Window: "hann", Samples: samples})
	resp, err := http.Post(ts.URL+"/fft/stft", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: status %d\n", resp.StatusCode)
		return 1
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: no header line: %v\n", sc.Err())
		return 1
	}
	var hdr stftWireLine
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Frames != wantFrames {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: header %q (err %v), want %d frames\n",
			sc.Text(), err, wantFrames)
		return 1
	}

	// Drain begins after the first frame is on the wire — squarely
	// mid-stream.
	got := 0
	drained := false
	for sc.Scan() {
		var line stftWireLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			fmt.Fprintf(os.Stderr, "fftcheck: served stft: bad line %q: %v\n", sc.Text(), err)
			return 1
		}
		if line.Error != "" {
			fmt.Fprintf(os.Stderr, "fftcheck: served stft: stream severed after %d/%d frames: %s\n",
				got, wantFrames, line.Error)
			return 1
		}
		got++
		if !drained {
			s.StartDrain()
			drained = true
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: reading stream: %v\n", err)
		return 1
	}
	if got != wantFrames {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: %d/%d frames survived the drain\n", got, wantFrames)
		return 1
	}

	// New work arriving during/after the drain is refused, not queued.
	resp2, err := http.Post(ts.URL+"/fft/stft", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: post-drain request: %v\n", err)
		return 1
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: post-drain status %d, want 503\n", resp2.StatusCode)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "fftcheck: served stft: drain: %v\n", err)
		return 1
	}
	fmt.Printf("served spectrogram: %d frames streamed through a graceful drain, 0 severed; post-drain sheds 503\n", wantFrames)
	return 0
}
