// The streaming spectrogram endpoint. POST /fft/stft takes a real
// signal plus frame/hop/window parameters and streams the spectrogram
// back as NDJSON — a header line, then one line per frame — flushing
// after every chunk, so a long signal's first frames arrive while the
// last are still being transformed.
//
// The endpoint rides the daemon's one request pipeline (pipeline.go)
// rather than sidestepping it:
//
//   - Admission: a stream is refused up front with 503 under drain and
//     429 when the queue is full, like any other request, and holds its
//     one queue token for its whole lifetime, so Drain cannot declare
//     the server idle while a stream is mid-flight. Its chunks ride that
//     token — they take none of their own, so a stream can never starve
//     against its own slot.
//   - Coalescing: frames are windowed in the handler and submitted in
//     chunks under batchKey{frame, KindForward} — a chunk is just a
//     request with many rows — so chunks of concurrent streams, and
//     plain forward requests of the same length, share TransformBatch
//     dispatches.
//   - Graceful drain: chunks of an already-admitted stream keep flowing
//     during drain, so an in-flight spectrogram finishes rather than
//     being severed.
package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"codeletfft"
)

// stftChunkFrames bounds how many frames ride in one submitted chunk —
// the streaming granularity and the per-stream working set. It matches
// the batch executor's sweet spot: large enough to amortize the stage
// barrier, small enough that first output leaves quickly.
const stftChunkFrames = 64

// stftRequest is the endpoint's JSON wire format.
type stftRequest struct {
	// Frame is the analysis frame length (any planner-served length);
	// Hop is the sample advance between frames, in [1, Frame].
	Frame int `json:"frame"`
	Hop   int `json:"hop"`
	// Window selects the analysis window: "hann" (periodic, the
	// spectrogram default) or ""/"rect" for rectangular.
	Window string `json:"window"`
	// Samples is the real signal; ⌊(len−frame)/hop⌋+1 frames result.
	Samples []float64 `json:"samples"`
}

// stftHeader is the stream's first NDJSON line.
type stftHeader struct {
	Frames int `json:"frames"`
	Bins   int `json:"bins"`
	Hop    int `json:"hop"`
}

// stftFrame is one spectrogram frame line.
type stftFrame struct {
	I  int       `json:"i"`
	Re []float64 `json:"re"`
	Im []float64 `json:"im"`
}

// stftError trails the stream when a chunk fails after the header has
// been sent (the status code is already on the wire by then).
type stftError struct {
	Error string `json:"error"`
}

func (s *Server) handleSTFT(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.m.requests.Inc()
	defer func() { s.m.requestSec.Observe(time.Since(start).Seconds()) }()

	var req stftRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.reject(w, shapeErrorf("bad JSON: %v", err))
		return
	}
	if err := s.checkN(req.Frame, KindForward); err != nil {
		s.reject(w, err)
		return
	}
	if req.Hop < 1 || req.Hop > req.Frame {
		s.reject(w, shapeErrorf("hop %d outside [1, frame=%d]", req.Hop, req.Frame))
		return
	}
	var win []float64
	switch req.Window {
	case "hann":
		win = codeletfft.HannWindow(req.Frame)
	case "", "rect":
	default:
		s.reject(w, shapeErrorf("unknown window %q", req.Window))
		return
	}

	// Admission happens once, up front, and the stream's token is held
	// until the last frame is written so Drain waits out in-flight
	// spectrograms.
	ctx, cancel, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer cancel()
	defer s.release()

	s.m.stftStreams.Inc()
	nf := 0
	if len(req.Samples) >= req.Frame {
		nf = 1 + (len(req.Samples)-req.Frame)/req.Hop
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	_ = enc.Encode(stftHeader{Frames: nf, Bins: req.Frame, Hop: req.Hop})
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}

	key := batchKey{n: req.Frame, kind: KindForward}
	line := stftFrame{Re: make([]float64, req.Frame), Im: make([]float64, req.Frame)}
	// One slab serves every chunk, the last one a prefix of it: a submit
	// that fails ends the stream, so the executor has handed back every
	// chunk that the next one overwrites.
	slab := splitRows(make([]complex128, min(stftChunkFrames, nf)*req.Frame), req.Frame)
	for base := 0; base < nf; base += stftChunkFrames {
		frames := slab[:min(stftChunkFrames, nf-base)]
		for f, row := range frames {
			src := req.Samples[(base+f)*req.Hop : (base+f)*req.Hop+req.Frame]
			if win != nil {
				for i, v := range src {
					row[i] = complex(v*win[i], 0)
				}
			} else {
				for i, v := range src {
					row[i] = complex(v, 0)
				}
			}
		}

		if err := s.submit(ctx, key, &pending{rows: frames}); err != nil {
			// The status line is long gone; the failure trails the stream.
			_, msg := s.classify(err)
			_ = enc.Encode(stftError{Error: msg})
			return
		}

		for f, row := range frames {
			line.I = base + f
			for i, v := range row {
				line.Re[i], line.Im[i] = real(v), imag(v)
			}
			if err := enc.Encode(line); err != nil {
				return // client went away
			}
		}
		s.m.stftFrames.Add(int64(len(frames)))
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.m.ok.Inc()
}
