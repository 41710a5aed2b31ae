package codeletfft_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"codeletfft"
	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/"+digestFile+" from this tree's outputs")

const digestFile = "default_plan_digests.golden"

// digestLens are the lengths TestDefaultPlanDigests hashes: powers of
// two; mixed-radix lengths with odd and even stage counts, radix 7
// among them; lengths the default plan sends to Bluestein. Bluestein
// at 1 and 2, which the default plan never picks, is hashed from the
// plan itself as kind "bluestein". pinned are the lengths of the plans
// pinned to each kernel, fourStep the fft.FourStepPlan lengths.
var digestLens = struct{ pow2, mixed, bluestein, direct, real, pinned, fourStep []int }{
	pow2:      []int{2, 4, 8, 64, 128, 1024, 4096, 1 << 16, 1 << 20},
	mixed:     []int{1, 3, 6, 7, 12, 1000, 12005, 49152, 59049, 140625, 1000000, 3 << 18},
	bluestein: []int{13, 1009, 4099, 65537, 129763, 1<<18 + 3},
	direct:    []int{1, 2},
	real:      []int{4, 16, 4096, 2000, 2018, 1 << 16, 98304},
	pinned:    []int{1024, 1 << 16},
	fourStep:  []int{1 << 10, 1 << 16, 1 << 20},
}

// digestConvShapes are the (signal, kernel) lengths of the ConvPlan
// lines: one sample, a 256-point segment, 2^16 samples on segments of
// 400, 1024 and 4500 points, and a kernel so long that three segments
// of 12500 points cover the output.
var digestConvShapes = [][2]int{{1, 1}, {3000, 41}, {1 << 16, 84}, {1 << 16, 255}, {1 << 16, 1100}, {3000, 8000}}

// TestDefaultPlanDigests pins the bits of default plans: it hashes
// forward and inverse outputs of every digestLens length, serially,
// pass-parallel on three workers and as a batch of three, and compares
// the listing with testdata/default_plan_digests.golden. It also
// pins the paths no default plan reaches: fft.FourStepPlan (which the
// out-of-core and cluster paths equal bit for bit), a plan pinned to
// each kernel with WithKernel, HostPlan2D at 64×128, 48×80 and
// 12×97 (a Bluestein row axis), and ConvPlan's Convolve,
// CrossCorrelate and StreamFilter at digestConvShapes on one and four
// workers. The asm and
// `-tags noasm` builds read the same file, so the vector codelets are
// held to the Go codelets' bits too. A change that is meant to move
// bits regenerates the file with `go test -run TestDefaultPlanDigests
// -update .` and says why. The file holds amd64's bits: elsewhere the
// compiler fuses x*y+z in the Go codelets too, so the test skips.
func TestDefaultPlanDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden digests are amd64's")
	}
	var keys []string
	got := map[string]string{}
	add := func(kind string, n int, way, dir string, out ...[]complex128) {
		k := fmt.Sprintf("%s %d %s %s", kind, n, way, dir)
		keys = append(keys, k)
		got[k] = digest(out...)
	}
	// The SoA kernels' vector codelets fuse multiply-adds, so their bits
	// are the backend's: their lines carry its name. So do the powers of
	// two fft.MixedPow2 moves (kernLen, a real plan's half): the backend
	// decides whether the mixed stages or the staged kernels run, and the
	// line is keyed on what runs — at 8 and 64 points Kernel() names
	// radix4, which runs only where the length stays staged.
	accel := func(kind string, kernLen int, k codeletfft.Kernel) string {
		if k == fft.KernelSoARadix2 || k == fft.KernelSoARadix4 || movedPow2(kernLen) {
			return kind + "/" + codeletfft.Acceleration()
		}
		return kind
	}
	// hostLines hashes an n-point host plan built with opts, serial,
	// pass-parallel and batched; kindOf names the lines from the
	// kernel the plan resolved.
	hostLines := func(n int, kindOf func(codeletfft.Kernel) string, opts ...codeletfft.HostOption) {
		serial, err := codeletfft.NewHostPlan(n, append(opts, codeletfft.WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		par, err := codeletfft.NewHostPlan(n, append(opts, codeletfft.WithWorkers(3), codeletfft.WithThreshold(1))...)
		if err != nil {
			t.Fatal(err)
		}
		kind := kindOf(serial.Kernel())
		for _, dir := range []string{"fwd", "inv"} {
			run, runPar, batch := serial.Transform, par.Transform, par.TransformBatch
			if dir == "inv" {
				run, runPar, batch = serial.Inverse, par.Inverse, par.InverseBatch
			}
			x := digestSignal(n, 0)
			mustRun(t, run(x))
			add(kind, n, "serial", dir, x)
			x = digestSignal(n, 0)
			mustRun(t, runPar(x))
			add(kind, n, "workers3", dir, x)
			b := [][]complex128{digestSignal(n, 1), digestSignal(n, 2), digestSignal(n, 3)}
			mustRun(t, batch(b))
			add(kind, n, "batch3", dir, b...)
		}
	}
	complexLens := append(append(append([]int(nil), digestLens.pow2...), digestLens.mixed...), digestLens.bluestein...)
	for _, n := range complexLens {
		hostLines(n, func(k codeletfft.Kernel) string { return accel("complex", n, k) })
	}
	eng := host.New(host.Config{Workers: 3, Threshold: 1})
	for _, n := range digestLens.direct {
		bp, err := fft.NewBluesteinPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"fwd", "inv"} {
			s := bp.Schedule(dir == "inv")
			x := digestSignal(n, 0)
			mustRun(t, s.Run(x))
			add("bluestein", n, "serial", dir, x)
			x = digestSignal(n, 0)
			mustRun(t, eng.Run(s, x))
			add("bluestein", n, "workers3", dir, x)
			b := [][]complex128{digestSignal(n, 1), digestSignal(n, 2), digestSignal(n, 3)}
			mustRun(t, eng.RunBatch(s, b))
			add("bluestein", n, "batch3", dir, b...)
		}
	}
	for _, n := range digestLens.real {
		for _, way := range []string{"serial", "workers3"} {
			opts := []codeletfft.HostOption{codeletfft.WithWorkers(1)}
			if way == "workers3" {
				opts = []codeletfft.HostOption{codeletfft.WithWorkers(3), codeletfft.WithThreshold(1)}
			}
			rp, err := codeletfft.NewRealPlan(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			z := digestSignal(n, 0)
			x := make([]float64, n)
			for i, v := range z {
				x[i] = real(v)
			}
			kind := accel("real", n/2, rp.Kernel())
			spec := make([]complex128, rp.SpectrumLen())
			mustRun(t, rp.Transform(spec, x))
			add(kind, n, way, "fwd", spec)
			mustRun(t, rp.Inverse(x, spec))
			back := make([]complex128, n)
			for i, v := range x {
				back[i] = complex(v, 0)
			}
			add(kind, n, way, "inv", back)
		}
	}
	// A pinned plan stays staged at every length, so only the SoA
	// kernels' lines carry the backend.
	for _, kern := range codeletfft.Kernels() {
		for _, n := range digestLens.pinned {
			hostLines(n, func(k codeletfft.Kernel) string { return accel("kernel-"+k.String(), 0, k) }, codeletfft.WithKernel(kern))
		}
	}
	// The four-step's sub-FFTs are the mixed stages, whose bits are the
	// same on every backend.
	for _, n := range digestLens.fourStep {
		p, err := fft.NewFourStep(fft.NearSquareFactor(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"fwd", "inv"} {
			run := p.Transform
			if dir == "inv" {
				run = p.InverseTransform
			}
			x := digestSignal(n, 0)
			mustRun(t, run(x))
			add("fourstep", n, "serial", dir, x)
		}
	}
	// A 2-D plan's axes are the default plans of their lengths, so a
	// power-of-two axis carries the backend (the SoA kernels, or the
	// mixed stages fft.MixedPow2 moves it to) and the other shapes' lines
	// are the same on every backend.
	for _, sh := range [][2]int{{64, 128}, {48, 80}, {12, 97}} {
		rows, cols := sh[0], sh[1]
		kind := fmt.Sprintf("2d-%dx%d", rows, cols)
		if rows&(rows-1) == 0 || cols&(cols-1) == 0 {
			kind += "/" + codeletfft.Acceleration()
		}
		for _, way := range []string{"serial", "workers3"} {
			opts := []codeletfft.HostOption{codeletfft.WithWorkers(1)}
			if way == "workers3" {
				opts = []codeletfft.HostOption{codeletfft.WithWorkers(3), codeletfft.WithThreshold(1)}
			}
			p, err := codeletfft.NewHostPlan2D(rows, cols, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []string{"fwd", "inv"} {
				run := p.Transform
				if dir == "inv" {
					run = p.Inverse
				}
				x := digestSignal(rows*cols, 0)
				mustRun(t, run(x))
				add(kind, rows*cols, way, dir, x)
			}
		}
	}
	// A convolution's segments run the default plan of the segment
	// length M. Where M is a power of two from 8 up, that plan is the
	// backend's (the mixed stages or a staged SoA kernel), so the line
	// carries its name; every other M runs the mixed stages, whose bits
	// are the same on every backend. The stream is fed the signal in two
	// calls, the first empty at n = 1.
	for _, sh := range digestConvShapes {
		n, k := sh[0], sh[1]
		x, h := digestSignal(n, 0), digestSignal(k, 1)
		for _, w := range []int{1, 4} {
			p, err := codeletfft.NewConvPlan(n, k, codeletfft.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			kind := fmt.Sprintf("conv-%dx%d", n, k)
			if m := p.SegmentLen(); m >= 8 && m&(m-1) == 0 {
				kind += "/" + codeletfft.Acceleration()
			}
			way := fmt.Sprintf("workers%d", w)
			for _, dir := range []string{"convolve", "correlate"} {
				run := p.Convolve
				if dir == "correlate" {
					run = p.CrossCorrelate
				}
				dst := make([]complex128, p.OutLen())
				mustRun(t, run(dst, x, h))
				add(kind, p.OutLen(), way, dir, dst)
			}
			f, err := p.FilterStream(h)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]complex128, n)
			mustRun(t, f.Process(dst[:n/2], x[:n/2]))
			mustRun(t, f.Process(dst[n/2:], x[n/2:]))
			add(kind, p.OutLen(), way, "stream", dst)
		}
	}

	path := filepath.Join("testdata", digestFile)
	raw, err := os.ReadFile(path)
	if err != nil && !(*updateDigests && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("%v (generate it with -update)", err)
	}
	// Lines of another backend are kept as they are; every other line
	// of the file must be one this run made.
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	want := map[string]string{}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 5 || otherBackend(f[0]) {
			continue
		}
		want[strings.Join(f[:4], " ")] = f[4]
	}
	if *updateDigests {
		// Rewrite the file in its own order: this run's lines in place,
		// other backends' lines where they are, keys new to the file at
		// the end. A regeneration then diffs only in what moved.
		var b strings.Builder
		done := map[string]bool{}
		for _, line := range lines {
			f := strings.Fields(line)
			if len(f) != 5 {
				continue
			}
			k := strings.Join(f[:4], " ")
			if d, ok := got[k]; ok && !done[k] {
				fmt.Fprintf(&b, "%s %s\n", k, d)
				done[k] = true
			} else if otherBackend(f[0]) {
				b.WriteString(line + "\n")
			}
		}
		for _, k := range keys {
			if !done[k] {
				fmt.Fprintf(&b, "%s %s\n", k, got[k])
				done[k] = true
			}
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, golden %q", k, got[k], want[k])
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("%s: in the golden file, not made by this run", k)
	}
}

// otherBackend reports whether a golden line's kind is keyed to a
// backend other than this build's.
func otherBackend(kind string) bool {
	_, tag, ok := strings.Cut(kind, "/")
	return ok && tag != codeletfft.Acceleration()
}

// digestSignal is a fixed pseudo-random signal in [-1, 1)², row k of a
// batch: splitmix64 over (n, k), so it depends on no library's
// generator.
func digestSignal(n, k int) []complex128 {
	s := uint64(n)<<8 | uint64(k)
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11)*0x1p-52 - 1
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(next(), next())
	}
	return x
}

// digest is the SHA-256 of the arrays' float64 bits, little-endian, in
// order.
func digest(arrays ...[]complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, a := range arrays {
		for _, v := range a {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func mustRun(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
