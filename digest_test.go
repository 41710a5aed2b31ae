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
// plan itself as kind "bluestein".
var digestLens = struct{ pow2, mixed, bluestein, direct, real []int }{
	pow2:      []int{2, 4, 8, 64, 128, 1024, 4096, 1 << 16, 1 << 20},
	mixed:     []int{1, 3, 6, 7, 12, 1000, 12005, 49152, 59049, 140625, 1000000, 3 << 18},
	bluestein: []int{13, 1009, 4099, 65537, 129763, 1<<18 + 3},
	direct:    []int{1, 2},
	real:      []int{4, 16, 4096, 2000, 2018, 1 << 16, 98304},
}

// TestDefaultPlanDigests pins the bits of default plans: it hashes
// forward and inverse outputs of every digestLens length, serially,
// pass-parallel on three workers and as a batch of three, and compares
// the listing with testdata/default_plan_digests.golden. The asm and
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
	complexLens := append(append(append([]int(nil), digestLens.pow2...), digestLens.mixed...), digestLens.bluestein...)
	for _, n := range complexLens {
		serial, err := codeletfft.NewHostPlan(n, codeletfft.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := codeletfft.NewHostPlan(n, codeletfft.WithWorkers(3), codeletfft.WithThreshold(1))
		if err != nil {
			t.Fatal(err)
		}
		kind := accel("complex", n, serial.Kernel())
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

	path := filepath.Join("testdata", digestFile)
	raw, err := os.ReadFile(path)
	if err != nil && !(*updateDigests && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("%v (generate it with -update)", err)
	}
	// Lines of another backend are kept as they are; every other line
	// of the file must be one this run made.
	var other []string
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		k := strings.Join(f[:4], " ")
		if _, tag, ok := strings.Cut(f[0], "/"); ok && tag != codeletfft.Acceleration() {
			other = append(other, line)
			continue
		}
		want[k] = f[4]
	}
	if *updateDigests {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		for _, line := range other {
			b.WriteString(line + "\n")
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
