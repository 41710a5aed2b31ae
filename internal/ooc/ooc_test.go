package ooc

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"codeletfft/internal/fft"
	"codeletfft/internal/metrics"
)

// randomData returns deterministic pseudo-random input.
func randomData(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return data
}

// fourStepRef computes the in-core four-step reference transform.
func fourStepRef(t *testing.T, data []complex128, inverse bool) []complex128 {
	t.Helper()
	n1, n2 := nearSquareFactor(len(data))
	fs, err := fft.NewFourStep(n1, n2)
	if err != nil {
		t.Fatalf("NewFourStep(%d,%d): %v", n1, n2, err)
	}
	out := append([]complex128(nil), data...)
	if inverse {
		fs.InverseTransform(out)
	} else {
		fs.Transform(out)
	}
	return out
}

// TestTransformBitwiseVsFourStep is the tentpole's core claim: at
// co-runnable sizes, the staged out-of-core execution produces bit for
// bit the same output as the in-core four-step — across sizes, tile
// heights (including ones forcing many strips and many segments per
// strip), both scheduling policies, and both directions.
func TestTransformBitwiseVsFourStep(t *testing.T) {
	for _, tc := range []struct {
		n, tile int
		policy  Policy
	}{
		{4, 1, FIFO()},
		{8, 1, FIFO()},
		{64, 2, FIFO()},
		{64, 8, Guided(3)},
		{256, 4, FIFO()},
		{256, 4, Guided(1)},
		{1 << 10, 8, FIFO()},
		{1 << 10, 8, Guided(7)},
		{1 << 12, 16, Guided(5)},
		{1 << 14, 32, FIFO()},
	} {
		for _, inverse := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/tile=%d/%s/inverse=%v", tc.n, tc.tile, tc.policy.Name(), inverse)
			t.Run(name, func(t *testing.T) {
				p, err := NewPlan(tc.n,
					WithTileVecs(tc.tile),
					WithPolicy(tc.policy),
					WithSpillDir(t.TempDir()),
					WithWorkers(3),
					WithIOWorkers(2),
				)
				if err != nil {
					t.Fatalf("NewPlan: %v", err)
				}
				data := randomData(tc.n, int64(tc.n))
				want := fourStepRef(t, data, inverse)
				got := append([]complex128(nil), data...)
				if inverse {
					err = p.Inverse(got)
				} else {
					err = p.Transform(got)
				}
				if err != nil {
					t.Fatalf("transform: %v", err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("bin %d: ooc %v != four-step %v (not bitwise identical)", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestPolicyIndependence pins that neither the schedule nor the compute
// fan-out reaches the data: FIFO and guided orders, one compute worker
// and three, produce bitwise identical output in both directions —
// ordering moves I/O, and every vector runs the same serial kernel
// whichever goroutine picks it up.
func TestPolicyIndependence(t *testing.T) {
	const n = 1 << 10
	data := randomData(n, 99)
	for _, inverse := range []bool{false, true} {
		var first []complex128
		for _, pol := range []Policy{FIFO(), Guided(0), Guided(3), Guided(11)} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/workers=%d/inverse=%v", pol.Name(), workers, inverse)
				p, err := NewPlan(n, WithTileVecs(4), WithPolicy(pol), WithWorkers(workers), WithSpillDir(t.TempDir()))
				if err != nil {
					t.Fatalf("NewPlan(%s): %v", name, err)
				}
				got := append([]complex128(nil), data...)
				if inverse {
					err = p.Inverse(got)
				} else {
					err = p.Transform(got)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if first == nil {
					first = got
					continue
				}
				for i := range got {
					if got[i] != first[i] {
						t.Fatalf("%s: bin %d differs from the FIFO single-worker output", name, i)
					}
				}
			}
		}
	}
}

// TestRoundTrip checks Transform∘Inverse ≈ identity at a non-trivial
// size through the full staged path.
func TestRoundTrip(t *testing.T) {
	const n = 1 << 12
	p, err := NewPlan(n, WithTileVecs(8), WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(n, 7)
	got := append([]complex128(nil), data...)
	if err := p.Transform(got); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if d := cmplx.Abs(got[i] - data[i]); d > 1e-9 {
			t.Fatalf("round trip bin %d off by %g", i, d)
		}
	}
}

// TestTransformFile runs the file-to-file path and compares against the
// in-memory path, including the in-place (dst == src) mode.
func TestTransformFile(t *testing.T) {
	const n = 1 << 10
	dir := t.TempDir()
	data := randomData(n, 13)
	want := fourStepRef(t, data, false)

	src := filepath.Join(dir, "in.c128")
	if err := os.WriteFile(src, append([]byte(nil), fft.ComplexBytes(data)...), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(n, WithTileVecs(4), WithSpillDir(dir))
	if err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "out.c128")
	if err := p.TransformFile(context.Background(), dst, src); err != nil {
		t.Fatalf("TransformFile: %v", err)
	}
	checkFile := func(path string, want []complex128) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != n*16 {
			t.Fatalf("%s: %d bytes, want %d", path, len(raw), n*16)
		}
		got := make([]complex128, n)
		copy(fft.ComplexBytes(got), raw)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s bin %d: %v != %v", path, i, got[i], want[i])
			}
		}
	}
	checkFile(dst, want)

	// In place: transform src over itself.
	if err := p.TransformFile(context.Background(), src, src); err != nil {
		t.Fatalf("in-place TransformFile: %v", err)
	}
	checkFile(src, want)

	// Inverse brings the in-place file back to the input.
	if err := p.InverseFile(context.Background(), src, src); err != nil {
		t.Fatalf("InverseFile: %v", err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, n)
	copy(fft.ComplexBytes(got), raw)
	for i := range got {
		if d := cmplx.Abs(got[i] - data[i]); d > 1e-9 {
			t.Fatalf("file round trip bin %d off by %g", i, d)
		}
	}

	// Wrong-sized input is rejected up front.
	short := filepath.Join(dir, "short.c128")
	if err := os.WriteFile(short, make([]byte, 160), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.TransformFile(context.Background(), dst, short); err == nil {
		t.Fatal("TransformFile accepted a short input file")
	}
}

// TestBatchMethods covers the facade-compat batch entry points.
func TestBatchMethods(t *testing.T) {
	const n = 256
	p, err := NewPlan(n, WithTileVecs(4), WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]complex128{randomData(n, 1), randomData(n, 2)}
	want := [][]complex128{fourStepRef(t, batch[0], false), fourStepRef(t, batch[1], false)}
	if err := p.TransformBatch(batch); err != nil {
		t.Fatal(err)
	}
	for r := range batch {
		for i := range batch[r] {
			if batch[r][i] != want[r][i] {
				t.Fatalf("batch[%d] bin %d mismatch", r, i)
			}
		}
	}
	if err := p.TransformBatch([][]complex128{make([]complex128, n-1)}); err == nil {
		t.Fatal("TransformBatch accepted a wrong-length row")
	}
}

// TestContextCancel pins that a pre-cancelled context aborts the run
// with ctx.Err and releases the spill file.
func TestContextCancel(t *testing.T) {
	const n = 1 << 10
	dir := t.TempDir()
	p, err := NewPlan(n, WithTileVecs(2), WithSpillDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.TransformCtx(ctx, make([]complex128, n)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "ooc-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill files leaked after cancel: %v", left)
	}
}

// TestParallelIdxMixedErrorTypes: two staging goroutines that fail at
// once with errors of different concrete types (a *fs.PathError from a
// store beside a wrapped CRC error) yield one of the two — an
// atomic.Value holding the first error panics on the second's type, in
// a goroutine no caller can recover from.
func TestParallelIdxMixedErrorTypes(t *testing.T) {
	pathErr := &fs.PathError{Op: "read", Path: "spill", Err: os.ErrClosed}
	crcErr := fmt.Errorf("segment 3: %w", ErrCorruptSegment)
	var gate sync.WaitGroup // both workers are past the first-error check
	gate.Add(2)
	err := parallelIdx(context.Background(), 2, 2, nil, func(_, idx int) error {
		gate.Done()
		gate.Wait()
		if idx == 0 {
			return pathErr
		}
		return crcErr
	})
	if err != error(pathErr) && err != crcErr {
		t.Fatalf("err = %v, want one of the two workers' errors", err)
	}
}

// TestPlanValidation covers the constructor's error paths.
func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(100); !errors.Is(err, fft.ErrUnsupportedLength) {
		t.Fatalf("N=100: err = %v, want ErrUnsupportedLength", err)
	}
	if _, err := NewPlan(2); !errors.Is(err, fft.ErrUnsupportedLength) {
		t.Fatalf("N=2: err = %v, want ErrUnsupportedLength (needs two factors ≥ 2)", err)
	}
	if _, err := NewPlan(1<<10, WithTileVecs(3)); err == nil {
		t.Fatal("non-power-of-two tile accepted")
	}
	if _, err := NewPlan(1<<10, WithMemoryBudget(1024)); err == nil {
		t.Fatal("impossible memory budget accepted")
	}
	p, err := NewPlan(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 7)); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Fatalf("short data: err = %v, want ErrLengthMismatch", err)
	}
}

// TestBudgetDerivation checks the tile height honours the memory
// budget: derived tiles fit runCost — staging plus what the compute
// kernel keeps resident — and a bigger budget never shrinks the tile.
func TestBudgetDerivation(t *testing.T) {
	const n = 1 << 16 // 256×256
	prev := 0
	for _, budget := range []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20} {
		p, err := NewPlan(n, WithMemoryBudget(budget), WithIOWorkers(2), WithWorkers(2))
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		s2, s1 := p.TileVecs()
		if s1 != s2 {
			t.Fatalf("square split should give square tiles, got %d×%d", s2, s1)
		}
		n1, n2 := p.Factors()
		if s2 < min(n1, n2) && runCost(p.fs, s2*2, &p.cfg) <= budget {
			t.Fatalf("budget %d: tile %d not maximal", budget, s2)
		}
		if runCost(p.fs, s2, &p.cfg) > budget {
			t.Fatalf("budget %d: tile %d exceeds it", budget, s2)
		}
		if s2 < prev {
			t.Fatalf("tile shrank (%d → %d) with a growing budget", prev, s2)
		}
		prev = s2
	}

	// The kernel's share is counted, not assumed away: a budget that
	// holds exactly the staging of a 64-vector tile no longer buys one.
	exact := tileCost(64, 256, 2)
	p, err := NewPlan(n, WithMemoryBudget(exact), WithIOWorkers(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if s2, _ := p.TileVecs(); s2 >= 64 {
		t.Fatalf("budget = staging of a 64-vector tile still derived tile %d: kernel bytes not counted", s2)
	}

	// At the N=2^28 target geometry the kernel term is what the issue
	// enumerates: a 16·16384-byte frame per compute worker, the two
	// sub-plans' tables, and the 512 KiB two-level table — and the
	// derived tile still fits a 256 MiB budget with it included.
	p, err = NewPlan(1<<28, WithMemoryBudget(256<<20), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	const side = 1 << 14
	if got, want := p.fs.KernelBytes(4), int64(4*16*side+24*2*side+(512<<10)); got != want {
		t.Fatalf("KernelBytes(4) at 2^28 = %d, want %d", got, want)
	}
	s2, _ := p.TileVecs()
	if runCost(p.fs, s2, &p.cfg) > 256<<20 {
		t.Fatalf("2^28: tile %d exceeds the 256 MiB budget once the kernel is counted", s2)
	}
}

// TestMetricsPopulated runs one transform per policy and checks the
// per-channel prefetch counters and phase byte counters land in the
// registry with the expected totals.
func TestMetricsPopulated(t *testing.T) {
	const n = 1 << 12
	for _, pol := range []Policy{FIFO(), Guided(3)} {
		t.Run(pol.Name(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			p, err := NewPlan(n,
				WithTileVecs(8),
				WithPolicy(pol),
				WithRegistry(reg),
				WithSpillDir(t.TempDir()),
				WithChannels(4),
				WithStripe(4096),
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Transform(make([]complex128, n)); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			vals := map[string]int64{}
			for name, v := range snap {
				vals[name] = int64(v)
			}
			dataBytes := int64(n) * 16
			if got := vals["ooc_phase_cols_read_bytes_total"]; got != dataBytes {
				t.Fatalf("cols read %d bytes, want %d", got, dataBytes)
			}
			if got := vals["ooc_phase_rows_write_bytes_total"]; got != dataBytes {
				t.Fatalf("rows wrote %d bytes, want %d", got, dataBytes)
			}
			spillBytes := p.SpillBytes()
			if got := vals["ooc_phase_cols_write_bytes_total"]; got != spillBytes {
				t.Fatalf("cols wrote %d spill bytes, want %d", got, spillBytes)
			}
			if got := vals["ooc_phase_rows_read_bytes_total"]; got != spillBytes {
				t.Fatalf("rows read %d spill bytes, want %d", got, spillBytes)
			}
			// Every channel's read counter exists; together they account
			// for every byte read in both phases.
			var chSum int64
			for c := 0; c < 4; c++ {
				name := fmt.Sprintf("ooc_prefetch_read_bytes_ch%d_total", c)
				v, ok := vals[name]
				if !ok {
					t.Fatalf("counter %s missing from registry", name)
				}
				chSum += v
			}
			if want := dataBytes + spillBytes; chSum != want {
				t.Fatalf("per-channel reads sum to %d, want %d", chSum, want)
			}
			if vals["ooc_transforms_total"] != 1 {
				t.Fatalf("ooc_transforms_total = %d, want 1", vals["ooc_transforms_total"])
			}
			nsegs := int64(vals["ooc_segments_written_total"])
			if nsegs == 0 || vals["ooc_segments_read_total"] != nsegs {
				t.Fatalf("segments written %d read %d, want equal and nonzero",
					nsegs, vals["ooc_segments_read_total"])
			}
		})
	}
}

// TestPolicies pins the policy contract: both orders are permutations
// for awkward sizes, guided is seed-deterministic, differs from FIFO on
// large-enough inputs, and ParsePolicy maps flag spellings.
func TestPolicies(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9, 16, 64, 100, 1 << 10} {
		for _, pol := range []Policy{FIFO(), Guided(0), Guided(5), Guided(-3), Guided(1 << 20)} {
			if order := pol.Order(n); !validOrder(order, n) {
				t.Fatalf("%s.Order(%d) = %v is not a permutation", pol.Name(), n, order)
			}
		}
	}
	a := Guided(5).Order(256)
	b := Guided(5).Order(256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Guided order is not deterministic for equal seeds")
		}
	}
	fifo := FIFO().Order(256)
	same := true
	for i := range a {
		if a[i] != fifo[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Guided(5) order equals FIFO on 256 items")
	}

	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", "fifo"}, {"fifo", "fifo"}, {"FIFO", "fifo"},
		{"guided", "guided[seed=9]"}, {"lifo", "guided[seed=9]"}, {"guided-lifo", "guided[seed=9]"},
	} {
		p, err := ParsePolicy(tc.in, 9)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", tc.in, err)
		}
		if p.Name() != tc.want {
			t.Fatalf("ParsePolicy(%q).Name() = %q, want %q", tc.in, p.Name(), tc.want)
		}
	}
	if _, err := ParsePolicy("bogus", 0); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("ParsePolicy(bogus) err = %v, want named error", err)
	}
}

// TestToneLargeStreaming is the scaled-down shape of the N=2^28
// acceptance check: a pure tone x[j] = ω^{f·j} transforms to N·δ[k−f],
// verifiable without an in-core reference.
func TestToneLargeStreaming(t *testing.T) {
	const n = 1 << 14
	const f = 1234
	p, err := NewPlan(n, WithTileVecs(16), WithSpillDir(t.TempDir()), WithPolicy(Guided(1)))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]complex128, n)
	for j := range data {
		ang := 2 * math.Pi * float64((int64(f)*int64(j))%n) / float64(n)
		data[j] = cmplx.Exp(complex(0, ang))
	}
	if err := p.Transform(data); err != nil {
		t.Fatal(err)
	}
	for k := range data {
		want := complex(0, 0)
		if k == f {
			want = complex(float64(n), 0)
		}
		if d := cmplx.Abs(data[k] - want); d > 1e-6*float64(n) {
			t.Fatalf("tone bin %d: got %v, want %v", k, data[k], want)
		}
	}
}
