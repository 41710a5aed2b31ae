// Property tests of the spectrogram API: frames against the reference
// DFT across planner regimes, the Hann constant-overlap-add invariant
// and the reconstruction it guarantees, stream/batch equivalence under
// ragged writes, zero steady-state allocations, and shape validation.
package codeletfft_test

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"codeletfft"
)

func testSignal(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)/37) + 0.5*math.Cos(2*math.Pi*float64(i)/11) + 0.1*float64(i%7)
	}
	return x
}

// TestSTFTMatchesDFT checks every spectrogram frame bin-for-bin against
// the reference DFT of the windowed frame, for power-of-two,
// mixed-radix, and Bluestein frame lengths, windowed and rectangular.
func TestSTFTMatchesDFT(t *testing.T) {
	for _, frame := range []int{16, 12, 13} {
		for _, win := range [][]float64{nil, codeletfft.HannWindow(frame)} {
			hop := (frame + 1) / 2
			p, err := codeletfft.NewSTFTPlan(frame, hop, win)
			if err != nil {
				t.Fatalf("NewSTFTPlan(%d, %d): %v", frame, hop, err)
			}
			x := testSignal(6 * frame)
			nf := p.NumFrames(len(x))
			dst := make([][]complex128, nf)
			for f := range dst {
				dst[f] = make([]complex128, frame)
			}
			if err := p.Transform(dst, x); err != nil {
				t.Fatal(err)
			}
			for f := 0; f < nf; f++ {
				ref := make([]complex128, frame)
				for i := range ref {
					v := x[f*hop+i]
					if win != nil {
						v *= win[i]
					}
					ref[i] = complex(v, 0)
				}
				want := codeletfft.DFT(ref)
				for k := range want {
					if d := cmplx.Abs(dst[f][k] - want[k]); d > 1e-9*float64(frame) {
						t.Fatalf("frame=%d win=%v: frame %d bin %d diverged by %g", frame, win != nil, f, k, d)
					}
				}
			}
		}
	}
}

// TestHannCOLA pins the constant-overlap-add property the docs promise:
// at hop = n/2 the shifted periodic Hann windows sum to exactly 1 —
// and then verifies the reconstruction it implies end to end: inverse
// transforming a Hann spectrogram and overlap-adding the frames
// recovers the signal over the fully-covered interior.
func TestHannCOLA(t *testing.T) {
	const frame = 64
	const hop = frame / 2
	win := codeletfft.HannWindow(frame)
	for i := 0; i < hop; i++ {
		if d := math.Abs(win[i] + win[i+hop] - 1); d > 1e-12 {
			t.Fatalf("Hann COLA violated at %d: w[i]+w[i+hop] = %g", i, win[i]+win[i+hop])
		}
	}

	p, err := codeletfft.NewSTFTPlan(frame, hop, win)
	if err != nil {
		t.Fatal(err)
	}
	x := testSignal(16 * frame)
	nf := p.NumFrames(len(x))
	frames := make([][]complex128, nf)
	for f := range frames {
		frames[f] = make([]complex128, frame)
	}
	if err := p.Transform(frames, x); err != nil {
		t.Fatal(err)
	}

	// Invert every frame and overlap-add.
	h, err := codeletfft.NewHostPlan(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.InverseBatch(frames); err != nil {
		t.Fatal(err)
	}
	recon := make([]float64, len(x))
	for f := 0; f < nf; f++ {
		for i, v := range frames[f] {
			recon[f*hop+i] += real(v)
		}
	}
	// The interior [hop, nf·hop) is covered by two overlapping windows
	// summing to 1; the first and last half-frames see only one window.
	for i := hop; i < nf*hop; i++ {
		if d := math.Abs(recon[i] - x[i]); d > 1e-9 {
			t.Fatalf("COLA reconstruction diverged at %d by %g", i, d)
		}
	}
}

// TestSTFTStreamMatchesBatch drives the streaming spectrogram with
// ragged writes — single samples, sub-hop dribbles, multi-frame bursts
// — and checks every frame equals the batch Transform's.
func TestSTFTStreamMatchesBatch(t *testing.T) {
	const frame, hop = 32, 12
	win := codeletfft.HannWindow(frame)
	p, err := codeletfft.NewSTFTPlan(frame, hop, win)
	if err != nil {
		t.Fatal(err)
	}
	x := testSignal(50 * hop)
	nf := p.NumFrames(len(x))
	want := make([][]complex128, nf)
	for f := range want {
		want[f] = make([]complex128, frame)
	}
	if err := p.Transform(want, x); err != nil {
		t.Fatal(err)
	}

	s := p.Stream()
	rng := rand.New(rand.NewSource(3))
	got := make([][]complex128, 0, nf)
	off := 0
	drain := func() {
		for {
			dst := make([]complex128, frame)
			ok, err := s.Next(dst)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			got = append(got, dst)
		}
	}
	for off < len(x) {
		c := min(1+rng.Intn(3*frame), len(x)-off)
		s.Write(x[off : off+c])
		off += c
		if rng.Intn(2) == 0 {
			drain()
		}
	}
	drain()
	if s.Pending() != 0 {
		t.Fatalf("stream still reports %d pending frames after drain", s.Pending())
	}
	if len(got) != nf {
		t.Fatalf("stream yielded %d frames, batch yields %d", len(got), nf)
	}
	for f := range got {
		for k := range got[f] {
			if d := cmplx.Abs(got[f][k] - want[f][k]); d > 1e-12 {
				t.Fatalf("stream frame %d bin %d diverged by %g", f, k, d)
			}
		}
	}
}

// TestSTFTStreamSteadyStateAllocs: one hop in, one frame out, zero
// allocations once warm.
func TestSTFTStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const frame, hop = 256, 64
	p, err := codeletfft.NewSTFTPlan(frame, hop, codeletfft.HannWindow(frame), codeletfft.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stream()
	x := testSignal(frame)
	dst := make([]complex128, frame)
	s.Write(x)
	if ok, err := s.Next(dst); err != nil || !ok { // warm buffers and engine
		t.Fatalf("warmup: ok=%v err=%v", ok, err)
	}
	chunk := x[:hop]
	if avg := testing.AllocsPerRun(50, func() {
		s.Write(chunk)
		if ok, err := s.Next(dst); err != nil || !ok {
			t.Fatalf("steady state: ok=%v err=%v", ok, err)
		}
	}); avg > 0 {
		t.Fatalf("STFTStream Write+Next allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// TestNewSTFTPlanErrors: degenerate shapes error with the sentinel;
// a wrong-length window panics with ErrLengthMismatch.
func TestNewSTFTPlanErrors(t *testing.T) {
	for _, tc := range []struct{ frame, hop int }{{0, 1}, {16, 0}, {16, 17}, {-4, 1}} {
		if _, err := codeletfft.NewSTFTPlan(tc.frame, tc.hop, nil); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
			t.Fatalf("NewSTFTPlan(%d, %d) err = %v, want ErrUnsupportedLength", tc.frame, tc.hop, err)
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("wrong-length window did not panic")
		} else if err, ok := r.(error); !ok || !errors.Is(err, codeletfft.ErrLengthMismatch) {
			t.Fatalf("panic value %v, want an error wrapping ErrLengthMismatch", r)
		}
	}()
	_, _ = codeletfft.NewSTFTPlan(16, 8, make([]float64, 15))
}
