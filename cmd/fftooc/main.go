// Command fftooc runs out-of-core FFTs: transforms whose data and
// intermediate state live in files, staged through RAM tiles under an
// explicit memory budget. It is both the operational driver (transform
// a raw complex128 file into another) and the acceptance harness for
// the out-of-core subsystem — its check modes verify the staged result
// against the in-core four-step bit for bit (at co-runnable sizes), a
// streaming analytic tone (at any size), or a forward/inverse round
// trip, and it reports the process's peak RSS so a memory-budget claim
// is measured, not asserted.
//
// Usage:
//
//	fftooc -logn 26 -budget 256MiB -check tone     # 2^26 points, ≤ budget RAM
//	fftooc -logn 22 -check incore -metrics         # bitwise vs in-core
//	fftooc -in x.c128 -out X.c128 -logn 24         # transform a file
//	fftooc -logn 20 -check roundtrip -metrics      # + metrics dump
//
// Input/output files are flat native-order complex128 arrays. With no
// -in, the driver synthesizes a pure tone x[j] = exp(2πi·f·j/N)
// streaming to a temp file, so even N=2^28 (4 GiB of data) never needs
// N points in RAM; -check tone then verifies X[k] = N·δ[k−f] the same
// way, so it refuses -in. -check incore transforms random data in RAM
// and refuses -in and -out. Exit status is non-zero if any check fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"codeletfft"
	"codeletfft/internal/fft"
)

func main() {
	var (
		logN    = flag.Int("logn", 22, "transform 2^logn complex points")
		in      = flag.String("in", "", "input file (raw complex128); empty = synthesize a tone")
		out     = flag.String("out", "", "output file; empty = a temp file next to the spill")
		dir     = flag.String("dir", "", "spill/scratch directory (default $TMPDIR)")
		budget  = flag.String("budget", "256MiB", "memory budget for staging buffers (e.g. 512MiB, 1GiB)")
		tile    = flag.Int("tile", 0, "pin tile height (vectors per tile, power of two; 0 = derive from budget)")
		workers = flag.Int("workers", 0, "compute goroutines (0 = GOMAXPROCS)")
		iow     = flag.Int("io", 0, "staging I/O goroutines per pipeline stage (0 = default)")
		inverse = flag.Bool("inverse", false, "run the inverse transform")
		check   = flag.String("check", "none", "verification: none, tone, incore, or roundtrip")
		tone    = flag.Int("tone", 12345, "tone frequency bin for synthesized input / -check tone")
		metrics = flag.Bool("metrics", false, "print the plan's metrics after the run")
	)
	flag.Parse()

	if err := run(*logN, *in, *out, *dir, *budget, *tile,
		*workers, *iow, *inverse, *check, *tone, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "fftooc:", err)
		os.Exit(1)
	}
}

func run(logN int, in, out, dir, budgetStr string, tile,
	workers, iow int, inverse bool, check string, tone int, metrics bool) error {
	if logN < 2 || logN > 40 {
		return fmt.Errorf("-logn %d out of range [2,40]", logN)
	}
	if err := checkArgs(check, in, out, inverse); err != nil {
		return err
	}
	n := 1 << logN
	budget, err := parseBytes(budgetStr)
	if err != nil {
		return err
	}
	if dir == "" {
		dir = os.TempDir()
	}

	opts := []codeletfft.OOCOption{
		codeletfft.OOCSpillDir(dir),
		codeletfft.OOCMemoryBudget(budget),
	}
	if tile > 0 {
		opts = append(opts, codeletfft.OOCTileVecs(tile))
	}
	if workers > 0 {
		opts = append(opts, codeletfft.OOCWorkers(workers))
	}
	if iow > 0 {
		opts = append(opts, codeletfft.OOCIOWorkers(iow))
	}
	p, err := codeletfft.NewOOCPlan(n, opts...)
	if err != nil {
		return err
	}
	s2, s1 := p.TileVecs()
	fmt.Printf("plan: %s budget=%s tiles=%d×%d spill=%s\n",
		p, budgetStr, s2, s1, fmtBytes(p.SpillBytes()))

	if check == "incore" {
		return checkInCore(p, n, inverse, metrics)
	}

	// File-to-file path (the genuinely out-of-core one).
	if in == "" {
		f, err := os.CreateTemp(dir, "fftooc-in-*.c128")
		if err != nil {
			return err
		}
		in = f.Name()
		defer os.Remove(in)
		if err := writeTone(f, n, tone); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("input: synthesized tone f=%d → %s (%s)\n", tone, in, fmtBytes(int64(n)*16))
	}
	if out == "" {
		out = filepath.Join(dir, fmt.Sprintf("fftooc-out-%d.c128", os.Getpid()))
		defer os.Remove(out)
	}

	ctx := context.Background()
	if inverse {
		err = p.InverseFile(ctx, out, in)
	} else {
		err = p.TransformFile(ctx, out, in)
	}
	if err != nil {
		return err
	}
	report(p)

	switch check {
	case "none":
	case "tone":
		if err := verifyTone(out, n, tone); err != nil {
			return err
		}
		fmt.Printf("check: tone ok (X[%d]=N, all other bins ~0)\n", tone)
	case "roundtrip":
		back := filepath.Join(dir, fmt.Sprintf("fftooc-back-%d.c128", os.Getpid()))
		defer os.Remove(back)
		if inverse {
			err = p.TransformFile(ctx, back, out)
		} else {
			err = p.InverseFile(ctx, back, out)
		}
		if err != nil {
			return err
		}
		if err := compareFiles(in, back, n, 1e-9); err != nil {
			return err
		}
		fmt.Println("check: roundtrip ok")
	}

	if metrics {
		fmt.Print(p.MetricsText())
	}
	reportRSS()
	return nil
}

// checkArgs rejects a -check mode the other flags make meaningless,
// before a plan is built or a byte is transformed.
func checkArgs(check, in, out string, inverse bool) error {
	switch check {
	case "none", "roundtrip":
	case "tone":
		if in != "" {
			return fmt.Errorf("-check tone verifies the synthesized tone, not an -in file; drop -in or pick -check roundtrip")
		}
		if inverse {
			return fmt.Errorf("-check tone verifies the forward transform; drop -inverse")
		}
	case "incore":
		if in != "" || out != "" {
			return fmt.Errorf("-check incore transforms random data in RAM and would ignore -in and -out; drop them")
		}
	default:
		return fmt.Errorf("unknown -check mode %q (want none, tone, incore, or roundtrip)", check)
	}
	return nil
}

// checkInCore transforms random data through both the staged
// out-of-core path and the in-core four-step reference and demands
// bitwise equality — the subsystem's core correctness claim. It holds
// ~3·N·16 bytes in RAM, so it only runs at co-runnable sizes.
func checkInCore(p *codeletfft.OOCPlan, n int, inverse, metrics bool) error {
	rng := rand.New(rand.NewSource(7))
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	n1, n2 := p.Factors()
	fs, err := fft.NewFourStep(n1, n2)
	if err != nil {
		return err
	}
	want := append([]complex128(nil), data...)
	if inverse {
		fs.InverseTransform(want)
		err = p.Inverse(data)
	} else {
		fs.Transform(want)
		err = p.Transform(data)
	}
	if err != nil {
		return err
	}
	for i := range data {
		if data[i] != want[i] {
			return fmt.Errorf("check incore: bin %d differs: ooc %v, four-step %v (not bitwise identical)",
				i, data[i], want[i])
		}
	}
	fmt.Printf("check: incore ok (%d bins bitwise identical to the four-step reference)\n", n)
	report(p)
	if metrics {
		fmt.Print(p.MetricsText())
	}
	reportRSS()
	return nil
}

// writeTone streams x[j] = exp(2πi·f·j/N) to w in 1 MiB chunks.
func writeTone(f *os.File, n, tone int) error {
	const chunk = 1 << 16
	buf := make([]complex128, chunk)
	for base := 0; base < n; base += chunk {
		m := min(chunk, n-base)
		for i := 0; i < m; i++ {
			j := base + i
			ang := 2 * math.Pi * float64((int64(tone)*int64(j))%int64(n)) / float64(n)
			buf[i] = cmplx.Exp(complex(0, ang))
		}
		if _, err := f.Write(fft.ComplexBytes(buf[:m])); err != nil {
			return err
		}
	}
	return nil
}

// verifyTone streams the output file and checks X[k] = N·δ[k−tone]
// within 1e-6·N — the analytic ground truth no in-core reference is
// needed for.
func verifyTone(path string, n, tone int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	const chunk = 1 << 16
	buf := make([]complex128, chunk)
	tol := 1e-6 * float64(n)
	worst := 0.0
	for base := 0; base < n; base += chunk {
		m := min(chunk, n-base)
		raw := fft.ComplexBytes(buf[:m])
		if _, err := f.ReadAt(raw, int64(base)*16); err != nil {
			return err
		}
		for i := 0; i < m; i++ {
			k := base + i
			want := complex(0, 0)
			if k == tone {
				want = complex(float64(n), 0)
			}
			if d := cmplx.Abs(buf[i] - want); d > tol {
				return fmt.Errorf("check tone: bin %d off by %g (tol %g)", k, d, tol)
			} else if d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("tone: worst bin error %.3g (tol %.3g)\n", worst, tol)
	return nil
}

// compareFiles streams two N-point files and checks elementwise
// distance ≤ tol.
func compareFiles(a, b string, n int, tol float64) error {
	fa, err := os.Open(a)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return err
	}
	defer fb.Close()
	const chunk = 1 << 16
	bufA := make([]complex128, chunk)
	bufB := make([]complex128, chunk)
	for base := 0; base < n; base += chunk {
		m := min(chunk, n-base)
		if _, err := fa.ReadAt(fft.ComplexBytes(bufA[:m]), int64(base)*16); err != nil {
			return err
		}
		if _, err := fb.ReadAt(fft.ComplexBytes(bufB[:m]), int64(base)*16); err != nil {
			return err
		}
		for i := 0; i < m; i++ {
			if d := cmplx.Abs(bufA[i] - bufB[i]); d > tol {
				return fmt.Errorf("files differ at element %d by %g", base+i, d)
			}
		}
	}
	return nil
}

// report prints the per-phase I/O totals and the per-channel balance.
func report(p *codeletfft.OOCPlan) {
	snap := p.Snapshot()
	fmt.Printf("phase cols: read %s written %s in %.2fs\n",
		fmtBytes(int64(snap["ooc_phase_cols_read_bytes_total"])),
		fmtBytes(int64(snap["ooc_phase_cols_write_bytes_total"])),
		snap["ooc_phase_cols_ns_total"]/1e9)
	fmt.Printf("phase rows: read %s written %s in %.2fs\n",
		fmtBytes(int64(snap["ooc_phase_rows_read_bytes_total"])),
		fmtBytes(int64(snap["ooc_phase_rows_write_bytes_total"])),
		snap["ooc_phase_rows_ns_total"]/1e9)
	var parts []string
	for c := 0; ; c++ {
		v, ok := snap[fmt.Sprintf("ooc_prefetch_read_bytes_ch%d_total", c)]
		if !ok {
			break
		}
		stalls := snap[fmt.Sprintf("ooc_prefetch_stalls_ch%d_total", c)]
		parts = append(parts, fmt.Sprintf("ch%d %s/%d stalls", c, fmtBytes(int64(v)), int64(stalls)))
	}
	fmt.Printf("channels: %s\n", strings.Join(parts, ", "))
	fmt.Printf("segments: %d written, %d read, pool stalls %d\n",
		int64(snap["ooc_segments_written_total"]),
		int64(snap["ooc_segments_read_total"]),
		int64(snap["ooc_pool_stalls_total"]))
}

// reportRSS prints the process's peak resident set (VmHWM) so memory
// budget claims are observable from the run output itself.
func reportRSS() {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return // non-Linux: /usr/bin/time -v is the fallback
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					fmt.Printf("peak RSS: %s (VmHWM %d kB)\n", fmtBytes(kb<<10), kb)
				}
			}
			return
		}
	}
}

// parseBytes parses sizes like "512MiB", "1GiB", "64MB", or plain byte
// counts.
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	for _, suf := range []struct {
		name string
		mul  int64
	}{
		{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3},
		{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10},
	} {
		if strings.HasSuffix(t, suf.name) {
			mult = suf.mul
			t = strings.TrimSuffix(t, suf.name)
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return v * mult, nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
