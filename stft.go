// Streaming spectrograms. An STFTPlan slides a windowed frame across a
// real-valued signal at a fixed hop and transforms each frame through
// the batched host engine — all frames of one call ride a single
// TransformBatch dispatch, and the streaming variant reuses one
// persistent frame buffer so steady-state operation allocates nothing.
package codeletfft

import (
	"fmt"

	"codeletfft/internal/fft"
)

// HannWindow returns the length-n periodic Hann window
// w[i] = 0.5·(1 − cos(2πi/n)). At hop = n/2 the shifted windows sum to
// exactly 1 (the constant-overlap-add property), so a spectrogram taken
// with it can be inverted by plain overlap-add. For n < 1 it returns
// nil.
func HannWindow(n int) []float64 { return fft.Hann(n) }

// STFTPlan computes short-time Fourier transforms: length-frame windows
// of a real signal, advanced by hop samples, each multiplied by the
// analysis window and transformed. Any frame length ≥ 1 is accepted —
// non-power-of-two frames route through the mixed-radix or Bluestein
// planner like every HostPlan. An STFTPlan is immutable after
// construction and safe for concurrent use; Stream() hands out the
// stateful per-stream object.
type STFTPlan struct {
	frame int
	hop   int
	win   []float64 // nil = rectangular
	plan  *HostPlan
}

// NewSTFTPlan builds a spectrogram plan with the given frame length and
// hop (both ≥ 1, hop ≤ frame). window is the analysis window applied to
// each frame before transforming; nil means rectangular, otherwise its
// length must equal frame (a mismatch is an error wrapping
// ErrLengthMismatch). The window slice is copied. opts configure the
// frame plan's engine exactly as for NewHostPlan.
func NewSTFTPlan(frame, hop int, window []float64, opts ...HostOption) (*STFTPlan, error) {
	if frame < 1 {
		return nil, fmt.Errorf("%w: spectrogram needs a frame length ≥ 1, got %d", ErrUnsupportedLength, frame)
	}
	if hop < 1 || hop > frame {
		return nil, fmt.Errorf("%w: spectrogram hop must be in [1, frame]; got hop %d for frame %d", ErrUnsupportedLength, hop, frame)
	}
	if window != nil && len(window) != frame {
		return nil, fft.LengthError("window", len(window), frame)
	}
	plan, err := CachedHostPlan(frame, opts...)
	if err != nil {
		return nil, err
	}
	p := &STFTPlan{frame: frame, hop: hop, plan: plan}
	if window != nil {
		p.win = append([]float64(nil), window...)
	}
	return p, nil
}

// FrameLen returns the analysis frame length (the per-frame spectrum
// length).
func (p *STFTPlan) FrameLen() int { return p.frame }

// Hop returns the sample advance between consecutive frames.
func (p *STFTPlan) Hop() int { return p.hop }

// NumFrames returns how many complete frames an n-sample signal yields:
// 1 + ⌊(n−frame)/hop⌋, or 0 when n < frame. Trailing samples that do
// not fill a frame are dropped, never zero-padded.
func (p *STFTPlan) NumFrames(n int) int {
	if n < p.frame {
		return 0
	}
	return 1 + (n-p.frame)/p.hop
}

// Transform computes the spectrogram of x: frame f is
// x[f·hop : f·hop+frame] multiplied by the window, transformed in
// place into dst[f]. len(dst) must be NumFrames(len(x)) and every
// dst[f] must have length frame; a mismatch is returned as an error
// wrapping ErrLengthMismatch (naming the row, for a frame) before any
// frame is loaded. All frames are dispatched as one TransformBatch, so
// the stage-barrier cost is paid once.
func (p *STFTPlan) Transform(dst [][]complex128, x []float64) error {
	nf := p.NumFrames(len(x))
	if len(dst) != nf {
		return fft.LengthError("spectrogram frames", len(dst), nf)
	}
	for f, row := range dst {
		if len(row) != p.frame {
			return fft.BatchLengthError(f, len(row), p.frame)
		}
	}
	for f, row := range dst {
		p.load(row, x[f*p.hop:f*p.hop+p.frame])
	}
	return p.plan.TransformBatch(dst)
}

// load fills one frame buffer with windowed real samples.
func (p *STFTPlan) load(dst []complex128, src []float64) {
	if p.win != nil {
		for i, v := range src {
			dst[i] = complex(v*p.win[i], 0)
		}
		return
	}
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
}

// Stream returns a stateful streaming spectrogram over this plan: feed
// samples with Write, pop completed frames with Next. After the first
// few calls warm its buffers, the Write/Next cycle performs no
// allocation. A stream must not be shared across goroutines.
func (p *STFTPlan) Stream() *STFTStream {
	return &STFTStream{p: p, buf: make([]float64, 0, 2*p.frame)}
}

// STFTStream is the streaming form of an STFTPlan: an internal sample
// queue holding at most frame+hop samples, and one transform per
// completed frame, run in the caller's buffer.
type STFTStream struct {
	p   *STFTPlan
	buf []float64
}

// Write appends samples to the stream. It never blocks and never
// transforms; call Next to drain completed frames.
func (s *STFTStream) Write(x []float64) {
	s.buf = append(s.buf, x...)
}

// Pending returns how many complete frames are ready for Next.
func (s *STFTStream) Pending() int { return s.p.NumFrames(len(s.buf)) }

// Next transforms the oldest pending frame into dst (length frame) and
// advances the stream by hop samples. It returns false without touching
// dst when no complete frame is buffered, and false with an error
// wrapping ErrLengthMismatch, the stream not advanced, when dst has the
// wrong length. In steady state Next performs no allocation: the frame
// is windowed into dst and transformed there by the plan.
func (s *STFTStream) Next(dst []complex128) (bool, error) {
	if len(dst) != s.p.frame {
		return false, fft.LengthError("spectrogram frame", len(dst), s.p.frame)
	}
	if len(s.buf) < s.p.frame {
		return false, nil
	}
	s.p.load(dst, s.buf[:s.p.frame])
	if err := s.p.plan.Transform(dst); err != nil {
		return false, err
	}
	n := copy(s.buf, s.buf[s.p.hop:])
	s.buf = s.buf[:n]
	return true, nil
}

// Reset discards all buffered samples.
func (s *STFTStream) Reset() { s.buf = s.buf[:0] }
