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
	"sync"
	"sync/atomic"
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

// fourStepRef computes the in-core four-step reference transform at the
// near-square split.
func fourStepRef(t *testing.T, data []complex128, inverse bool) []complex128 {
	t.Helper()
	n1, n2 := nearSquareFactor(len(data))
	return fourStepRefSplit(t, data, n1, n2, inverse)
}

func fourStepRefSplit(t *testing.T, data []complex128, n1, n2 int, inverse bool) []complex128 {
	t.Helper()
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
// strip), and both directions. The staging moves run in 64-vector
// tiles, so the matrix also has what exercises their edges: non-square
// splits, factors below the tile side (one short move tile), tile
// heights at and above it (several column windows per move), a skewed
// split either way round, and a single I/O goroutine. The names' "fifo"
// is the fetch order every run takes.
func TestTransformBitwiseVsFourStep(t *testing.T) {
	for _, tc := range []struct {
		n, tile int
		n1      int // 0 = the default near-square split
		iow     int // 0 = 2
	}{
		{n: 4, tile: 1},
		{n: 8, tile: 1},
		{n: 64, tile: 2},
		{n: 64, tile: 8},
		{n: 256, tile: 4},
		{n: 256, tile: 4, iow: 1},
		{n: 1 << 10, tile: 8},
		{n: 1 << 10, tile: 8, iow: 1},
		{n: 1 << 12, tile: 16},
		{n: 1 << 14, tile: 32},
		{n: 1 << 11, tile: 64},
		{n: 1 << 13, tile: 64},
		{n: 1 << 13, tile: 128},
		{n: 1 << 15, tile: 64},
		{n: 1 << 15, tile: 128},
		{n: 1 << 16, tile: 128, iow: 1},
		{n: 1 << 14, tile: 64, n1: 16},
		{n: 1 << 14, tile: 64, n1: 1024},
		{n: 1 << 12, tile: 64, iow: 1},
	} {
		for _, inverse := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/tile=%d/fifo/inverse=%v", tc.n, tc.tile, inverse)
			n1, n2 := nearSquareFactor(tc.n)
			if tc.n1 != 0 {
				n1, n2 = tc.n1, tc.n/tc.n1
				name = fmt.Sprintf("n=%d=%dx%d/tile=%d/fifo/inverse=%v", tc.n, n1, n2, tc.tile, inverse)
			}
			iow := 2
			if tc.iow != 0 {
				iow = tc.iow
				name += fmt.Sprintf("/iow=%d", iow)
			}
			t.Run(name, func(t *testing.T) {
				p, err := NewPlan(tc.n,
					WithTileVecs(tc.tile),
					WithSpillDir(t.TempDir()),
					WithWorkers(3),
					WithIOWorkers(iow),
					WithFactor(func(int) (int, int) { return n1, n2 }),
				)
				if err != nil {
					t.Fatalf("NewPlan: %v", err)
				}
				data := randomData(tc.n, int64(tc.n))
				want := fourStepRefSplit(t, data, n1, n2, inverse)
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

// TestWorkerCountIndependence pins that the compute fan-out does not
// reach the data: one compute worker and three produce bitwise identical
// output in both directions — every vector runs the same serial kernel
// whichever goroutine picks it up.
func TestWorkerCountIndependence(t *testing.T) {
	const n = 1 << 10
	data := randomData(n, 99)
	for _, inverse := range []bool{false, true} {
		var first []complex128
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("workers=%d/inverse=%v", workers, inverse)
			p, err := NewPlan(n, WithTileVecs(4), WithWorkers(workers), WithSpillDir(t.TempDir()))
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
					t.Fatalf("%s: bin %d differs from the single-worker output", name, i)
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

// TestFileToFileBitwise holds the file endpoints to the in-core
// four-step bit for bit in both directions, at non-square splits with
// the tile at and above the move's side: fileStore reads and writes are
// what the endpoint moves load from and store to, a vector at a time.
func TestFileToFileBitwise(t *testing.T) {
	for _, tc := range []struct{ n, tile int }{{1 << 13, 64}, {1 << 15, 128}} {
		dir := t.TempDir()
		data := randomData(tc.n, int64(tc.tile))
		src := filepath.Join(dir, "in.c128")
		if err := os.WriteFile(src, fft.ComplexBytes(data), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(tc.n, WithTileVecs(tc.tile), WithSpillDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, inverse := range []bool{false, true} {
			dst := filepath.Join(dir, fmt.Sprintf("out-%v.c128", inverse))
			if inverse {
				err = p.InverseFile(context.Background(), dst, src)
			} else {
				err = p.TransformFile(context.Background(), dst, src)
			}
			if err != nil {
				t.Fatalf("n=%d inverse=%v: %v", tc.n, inverse, err)
			}
			raw, err := os.ReadFile(dst)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]complex128, tc.n)
			if copy(fft.ComplexBytes(got), raw) != len(raw) {
				t.Fatalf("n=%d: output is %d bytes, want %d", tc.n, len(raw), tc.n*16)
			}
			want := fourStepRef(t, data, inverse)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v bin %d: file %v != four-step %v", tc.n, inverse, i, got[i], want[i])
				}
			}
		}
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

// TestContextCancel pins that a cancelled context — before the run, or
// in the middle of a fill — aborts it with ctx.Err and releases the
// spill file.
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
	noSpillLeft := func() {
		t.Helper()
		left, err := filepath.Glob(filepath.Join(dir, "ooc-spill-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("spill files leaked after cancel: %v", left)
		}
	}
	noSpillLeft()

	// Cancelled mid-fill: the staging goroutines take whole chunks (the
	// 64 vectors of a move tile), and the run unwinds between them — a
	// goroutine finishes at most the chunk it is in.
	const big, iow = 1 << 16, 2 // 256×256: four chunks per strip, four strips
	p, err = NewPlan(big, WithTileVecs(64), WithSpillDir(dir), WithIOWorkers(iow))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	st := &cancellingStore{memStore: memStore{make([]complex128, big)}, after: 10, cancel: cancel}
	if err := p.run(ctx, st, st, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if late := st.reads.Load() - st.after; late > iow*fft.MoveRuns {
		t.Fatalf("%d vector reads after the cancel, want at most one %d-vector chunk per I/O goroutine", late, fft.MoveRuns)
	}
	noSpillLeft()
}

// cancellingStore cancels its context on the after-th read.
type cancellingStore struct {
	memStore
	reads  atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (s *cancellingStore) ReadVec(dst []complex128, off int64) error {
	if s.reads.Add(1) == s.after {
		s.cancel()
	}
	return s.memStore.ReadVec(dst, off)
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
	err := parallelIdx(context.Background(), 2, 2, func(idx int) error {
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

	// The staging term by term: three pipeline tiles, and per I/O
	// goroutine what the rows phase — the costlier one — has in flight:
	// a segment buffer (header included) and the transposition's tile
	// under each prefetcher, a run buffer of 64 output vectors under
	// each writer.
	if got, want := tileCost(64, 256, 2), int64(3*64*256*16+2*((64+64*64*16)+fft.MoveTileBytes+64*64*16)); got != want {
		t.Fatalf("tileCost(64, 256, 2) = %d, want %d", got, want)
	}
	// On top of it compute keeps one row of pack scratch per goroutine
	// and the kernel's tables — and no frame.
	if got, want := runCost(p.fs, 64, &p.cfg), tileCost(64, 256, 2)+2*256*16+p.fs.KernelBytes(); got != want {
		t.Fatalf("runCost(64) = %d, want %d", got, want)
	}

	// At the N=2^28 target geometry the kernel term is the two
	// sub-plans' tables and the 512 KiB two-level table — and the
	// derived tile still fits a 256 MiB budget with it included.
	p, err = NewPlan(1<<28, WithMemoryBudget(256<<20), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	const side = 1 << 14
	if got, want := p.fs.KernelBytes(), int64(24*2*side+(512<<10)); got != want {
		t.Fatalf("KernelBytes at 2^28 = %d, want %d", got, want)
	}
	s2, _ := p.TileVecs()
	if runCost(p.fs, s2, &p.cfg) > 256<<20 {
		t.Fatalf("2^28: tile %d exceeds the 256 MiB budget once the kernel is counted", s2)
	}

	// The benchmark's geometry: 2^20 points under 4 MiB still stage in
	// 64-vector tiles — 256 segments — with every term above counted.
	p, err = NewPlan(1<<20, WithMemoryBudget(4<<20), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if s2, s1 := p.TileVecs(); s2 != 64 || s1 != 64 {
		t.Fatalf("2^20 under 4 MiB: tiles %d×%d, want 64×64", s2, s1)
	}
}

// TestMetricsPopulated runs one transform and checks the per-channel
// prefetch counters and phase byte counters land in the registry with
// the expected totals. It runs under the one fetch order ("fifo") and
// again with a single I/O goroutine: the totals are a property of the
// transform, not of how its fetches are spread over goroutines.
func TestMetricsPopulated(t *testing.T) {
	const n = 1 << 12
	for _, tc := range []struct {
		name string
		iow  int // 0 = DefaultIOWorkers
	}{{"fifo", 0}, {"iow=1", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			p, err := NewPlan(n, WithTileVecs(8), WithIOWorkers(tc.iow), WithRegistry(reg), WithSpillDir(t.TempDir()))
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
			// Every channel's read counter exists; together they account for
			// every byte read in both phases.
			var chSum int64
			for c := 0; c < ioChannels; c++ {
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

// TestChannelBytesMatchPerVectorReference: the staging goroutines batch
// their per-channel accounting (chanAcc), and the batching must not
// show — each channel's read and write counter equals a reference that
// attributes every positioned I/O, one by one, to the channel of its
// first byte. The model is deliberately not a power of two (3 channels,
// 4608-byte stripes, installed on the plan in place of the default), so
// stripe edges fall inside vectors, between the vectors of a chunk, and
// nowhere near a tile boundary.
func TestChannelBytesMatchPerVectorReference(t *testing.T) {
	const channels, stripe = 3, 4608
	for _, tc := range []struct{ n, tile int }{{1 << 13, 64}, {1 << 12, 16}, {1 << 15, 128}} {
		p, err := NewPlan(tc.n, WithTileVecs(tc.tile), WithSpillDir(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		p.met = newMeters(reg, channels, stripe)
		if err := p.Inverse(randomData(tc.n, 5)); err != nil {
			t.Fatal(err)
		}
		n1, n2 := p.Factors()
		s2, s1 := p.TileVecs()
		var wantRead, wantWrite [channels]int64
		io := func(acc *[channels]int64, byteOff, bytes int64) { acc[byteOff/stripe%channels] += bytes }
		for strip := 0; strip < n2/s2; strip++ {
			for j1 := 0; j1 < n1; j1++ {
				io(&wantRead, int64(j1*n2+strip*s2)*16, int64(s2)*16)
			}
		}
		for strip := 0; strip < n1/s1; strip++ {
			for k2 := 0; k2 < n2; k2++ {
				io(&wantWrite, int64(k2*n1+strip*s1)*16, int64(s1)*16)
			}
		}
		segBytes := int64(segHeaderLen + s1*s2*16)
		for idx := 0; idx < (n1/s1)*(n2/s2); idx++ {
			io(&wantWrite, int64(idx)*segBytes, segBytes)
			io(&wantRead, int64(idx)*segBytes, segBytes)
		}
		snap := reg.Snapshot()
		for c := 0; c < channels; c++ {
			if got := int64(snap[fmt.Sprintf("ooc_prefetch_read_bytes_ch%d_total", c)]); got != wantRead[c] {
				t.Errorf("n=%d tile=%d: channel %d read %d bytes, per-I/O reference %d", tc.n, tc.tile, c, got, wantRead[c])
			}
			if got := int64(snap[fmt.Sprintf("ooc_prefetch_write_bytes_ch%d_total", c)]); got != wantWrite[c] {
				t.Errorf("n=%d tile=%d: channel %d wrote %d bytes, per-I/O reference %d", tc.n, tc.tile, c, got, wantWrite[c])
			}
		}
	}
}

// TestToneLargeStreaming is the scaled-down shape of the N=2^28
// acceptance check: a pure tone x[j] = ω^{f·j} transforms to N·δ[k−f],
// verifiable without an in-core reference.
func TestToneLargeStreaming(t *testing.T) {
	const n = 1 << 14
	const f = 1234
	p, err := NewPlan(n, WithTileVecs(16), WithSpillDir(t.TempDir()))
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
