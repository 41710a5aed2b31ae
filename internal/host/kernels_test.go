package host_test

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

func kernInput(n int, seed uint64) []complex128 {
	x := make([]complex128, n)
	s := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int32(s>>32)) / float64(1<<31)
	}
	for i := range x {
		x[i] = complex(next(), next())
	}
	return x
}

func sameBits(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestSoAInverseMatchesUnfusedIdentity pins the sweep-free SoA inverse
// in the engine's two sharded execution modes — Workers=3 parallel and
// pooled batch (plus the batch's serial fallback) — bit-for-bit against
// the unfused conjugation identity conj → forward → conj·1/N, the
// composition every other kernel still runs as separate sweeps. The
// forward leg is the serial fft-layer transform, itself pinned to the
// scatter-pack pipeline in internal/fft.
func TestSoAInverseMatchesUnfusedIdentity(t *testing.T) {
	const b = 5
	for _, lg := range []int{1, 6, 9, 11, 14} {
		n := 1 << lg
		pl, err := fft.NewPlan(n, min(n, 64))
		if err != nil {
			t.Fatal(err)
		}
		w := fft.Twiddles(n)
		for _, k := range []fft.Kernel{fft.KernelSoARadix2, fft.KernelSoARadix4} {
			batch := make([][]complex128, b)
			want := make([][]complex128, b)
			for i := range batch {
				batch[i] = kernInput(n, uint64(lg*b+i))
				d := append([]complex128(nil), batch[i]...)
				for j, v := range d {
					d[j] = complex(real(v), -imag(v))
				}
				pl.TransformKernel(d, w, k)
				inv := 1 / float64(n)
				for j, v := range d {
					d[j] = complex(real(v)*inv, -imag(v)*inv)
				}
				want[i] = d
			}
			par := host.New(host.Config{Workers: 3, Threshold: 1})
			got := append([]complex128(nil), batch[0]...)
			noErr(t, par.Run(pl.Schedule(w, k, true), got))
			if !sameBits(got, want[0]) {
				t.Fatalf("N=2^%d %v: Workers=3 inverse != unfused identity", lg, k)
			}
			for _, threshold := range []int{1, 1 << 30} { // pooled, serial fallback
				eng := host.New(host.Config{Workers: 3, Threshold: threshold})
				rows := make([][]complex128, b)
				for i := range rows {
					rows[i] = append([]complex128(nil), batch[i]...)
				}
				eng.InverseBatchKernel(pl, rows, w, k)
				for i := range rows {
					if !sameBits(rows[i], want[i]) {
						t.Fatalf("N=2^%d %v threshold=%d: inverse batch row %d != unfused identity", lg, k, threshold, i)
					}
				}
			}
		}
	}
}

// TestKernelRealAndTwoD covers the kernel variants of the real and 2-D
// schedules on the engine against their serial fft-layer runs.
func TestKernelRealAndTwoD(t *testing.T) {
	eng := host.New(host.Config{Workers: 3, Threshold: 1})

	rp, err := fft.NewRealPlan(1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 1024)
	z := kernInput(1024, 21)
	for i := range x {
		x[i] = real(z[i])
	}
	for _, k := range fft.ConcreteKernels() {
		want := make([]complex128, rp.SpectrumLen())
		rp.TransformKernelWith(want, x, k, nil)
		got := make([]complex128, rp.SpectrumLen())
		rp.Pack(got, x)
		noErr(t, eng.Run(rp.Half.Schedule(rp.WHalf, k, false), got[:512]))
		rp.Unpack(got)
		if !sameBits(got, want) {
			t.Fatalf("%v: engine real transform != serial", k)
		}
		back := make([]float64, 1024)
		work := make([]complex128, 512)
		rp.PreInverse(work, got)
		noErr(t, eng.Run(rp.Half.Schedule(rp.WHalf, k, true), work))
		rp.PostInverse(back, work)
		for i := range back {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("%v: real round trip diverged at %d", k, i)
			}
		}
	}

	p2, err := fft.NewPlan2D(32, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range fft.ConcreteKernels() {
		want := kernInput(32*64, 5)
		got := append([]complex128(nil), want...)
		noErr(t, p2.Schedule(k, false).Run(want))
		noErr(t, eng.Run(p2.Schedule(k, false), got))
		if !sameBits(got, want) {
			t.Fatalf("%v: engine 2-D != serial", k)
		}
		noErr(t, p2.Schedule(k, true).Run(want))
		noErr(t, eng.Run(p2.Schedule(k, true), got))
		if !sameBits(got, want) {
			t.Fatalf("%v: engine inverse 2-D != serial", k)
		}
	}
}

type passRecorder struct {
	mu     sync.Mutex
	passes map[string]int
}

func (r *passRecorder) ObserveBatch(batch, n int, d time.Duration) {}
func (r *passRecorder) ObservePass(pass string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.passes == nil {
		r.passes = map[string]int{}
	}
	r.passes[pass]++
}

// TestKernelStagePassLabels: every kernel's butterfly passes report
// under its own observer label — one per barrier-separated pass, so a
// scalar kernel reports one per stage and an SoA kernel one per blocked
// pass of its schedule — and a batch dealt out whole reports the label
// once.
func TestKernelStagePassLabels(t *testing.T) {
	pl, err := fft.NewPlan(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(256)
	// An SoA schedule is its pack, then blocked passes of level sweeps.
	sweeps := func(k fft.Kernel) int { return len(pl.Schedule(w, k, false).Passes) - 1 }
	cases := []struct {
		kern   fft.Kernel
		label  string
		passes int // butterfly passes of one transform
	}{
		{fft.KernelRadix2, host.PassStage, pl.NumStages},
		{fft.KernelRadix4, host.PassStageRadix4, pl.NumStages},
		{fft.KernelSplitRadix, host.PassStageSplitRadix, pl.NumStages},
		{fft.KernelSoARadix2, host.PassStageSoA2, sweeps(fft.KernelSoARadix2)},
		{fft.KernelSoARadix4, host.PassStageSoA4, sweeps(fft.KernelSoARadix4)},
	}
	for _, tc := range cases {
		if got := host.StagePassLabel(tc.kern); got != tc.label {
			t.Fatalf("StagePassLabel(%v) = %q, want %q", tc.kern, got, tc.label)
		}
		rec := &passRecorder{}
		eng := host.New(host.Config{Workers: 2, Threshold: 1, Observer: rec})
		data := kernInput(256, 1)
		eng.TransformKernel(pl, data, w, tc.kern)
		if rec.passes[tc.label] != tc.passes {
			t.Fatalf("%v: saw %d %q passes, want %d (all: %v)",
				tc.kern, rec.passes[tc.label], tc.label, tc.passes, rec.passes)
		}
		if tc.kern.SoA() {
			// The split-plane pipeline replaces bitrev with its fused
			// pack pass, and its last blocked pass stores the result:
			// there is no unpack pass.
			if rec.passes[host.PassSoAPack] != 1 || rec.passes[host.PassSoAUnpack] != 0 {
				t.Fatalf("%v: pack/unpack passes = %d/%d, want 1/0 (all: %v)",
					tc.kern, rec.passes[host.PassSoAPack], rec.passes[host.PassSoAUnpack], rec.passes)
			}
			if rec.passes[host.PassBitRev] != 0 {
				t.Fatalf("%v: saw %d bitrev passes, want 0", tc.kern, rec.passes[host.PassBitRev])
			}
		}
		// Two rows on two workers are dealt out whole: one pass, same label.
		rec2 := &passRecorder{}
		eng2 := host.New(host.Config{Workers: 2, Threshold: 1, Observer: rec2})
		batch := [][]complex128{kernInput(256, 2), kernInput(256, 3)}
		eng2.TransformBatchKernel(pl, batch, w, tc.kern)
		if rec2.passes[tc.label] != 1 || len(rec2.passes) != 1 {
			t.Fatalf("%v batched: passes = %v, want one %q", tc.kern, rec2.passes, tc.label)
		}
	}
}

// TestBatchLengthPanicNamesIndex pins the ISSUE 5 bugfix: a bad row in
// a batch panics with an error that names the offending batch index and
// still wraps ErrLengthMismatch.
func TestBatchLengthPanicNamesIndex(t *testing.T) {
	pl, err := fft.NewPlan(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(64)
	eng := host.New(host.Config{Workers: 2, Threshold: 1})
	batch := [][]complex128{
		make([]complex128, 64),
		make([]complex128, 64),
		make([]complex128, 63), // bad row at index 2
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic for bad batch row")
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, fft.ErrLengthMismatch) {
			t.Fatalf("panic %v does not wrap ErrLengthMismatch", v)
		}
		if !strings.Contains(err.Error(), "batch element 2") {
			t.Fatalf("panic %q does not name batch index 2", err)
		}
	}()
	eng.TransformBatchKernel(pl, batch, w, fft.KernelRadix2)
}
