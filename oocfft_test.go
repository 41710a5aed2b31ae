package codeletfft_test

import (
	"context"
	"errors"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codeletfft"
	"codeletfft/internal/fft"
)

// oocTileBudget returns the smallest memory budget under which an
// n-point plan stages s-vector tiles: the budget is what sets the tile
// height, so a test that wants small tiles asks for a small budget.
func oocTileBudget(t *testing.T, n, s int) int64 {
	t.Helper()
	tile := func(b int64) int {
		p, err := codeletfft.NewOOCPlan(n, codeletfft.OOCMemoryBudget(b))
		if err != nil {
			return 0
		}
		s2, _ := p.TileVecs()
		return s2
	}
	lo, hi := int64(0), int64(256<<20) // tile(lo) < s ≤ tile(hi)
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; tile(mid) >= s {
			hi = mid
		} else {
			lo = mid
		}
	}
	if got := tile(hi); got != s {
		t.Fatalf("N=%d: no budget stages %d-vector tiles (the smallest with at least %d stages %d)", n, s, s, got)
	}
	return hi
}

// TestOOCPlanBitwiseVsFourStep pins the facade's core contract: the
// out-of-core plan reproduces the in-core four-step bit for bit at
// co-runnable sizes, in both directions.
func TestOOCPlanBitwiseVsFourStep(t *testing.T) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(42))
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	n1 := 1 << (fft.Log2(n) / 2)
	fs, err := fft.NewFourStep(n1, n/n1)
	if err != nil {
		t.Fatal(err)
	}
	budget := oocTileBudget(t, n, 8)
	for _, inverse := range []bool{false, true} {
		p, err := codeletfft.NewOOCPlan(n,
			codeletfft.OOCMemoryBudget(budget),
			codeletfft.OOCSpillDir(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		want := append([]complex128(nil), data...)
		got := append([]complex128(nil), data...)
		if inverse {
			if err := fs.InverseTransform(want); err != nil {
				t.Fatal(err)
			}
			err = p.Inverse(got)
		} else {
			if err := fs.Transform(want); err != nil {
				t.Fatal(err)
			}
			err = p.Transform(got)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("inverse=%v bin %d: ooc %v != four-step %v", inverse, i, got[i], want[i])
			}
		}
	}
}

// TestOOCPlanIsAPlan checks the interface slot and the geometry
// accessors.
func TestOOCPlanIsAPlan(t *testing.T) {
	p, err := codeletfft.NewOOCPlan(1<<10, codeletfft.OOCSpillDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var plan codeletfft.Plan = p
	data := make([]complex128, 1<<10)
	data[1] = 1
	if err := plan.TransformCtx(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	if err := plan.InverseCtx(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	if d := cmplx.Abs(data[1] - 1); d > 1e-12 {
		t.Fatalf("round trip drifted by %g", d)
	}
	n1, n2 := p.Factors()
	if n1*n2 != p.N() {
		t.Fatalf("factors %d×%d don't multiply to N=%d", n1, n2, p.N())
	}
	if s2, s1 := p.TileVecs(); s2 <= 0 || s1 <= 0 {
		t.Fatalf("bad tile geometry %d×%d", s2, s1)
	}
	if p.SpillBytes() <= int64(p.N())*16 {
		t.Fatalf("spill %d bytes should exceed the data (headers)", p.SpillBytes())
	}
}

// TestOOCPlanFileAndMetrics runs the file endpoint and checks the
// metrics surface mentions the per-channel prefetch counters.
func TestOOCPlanFileAndMetrics(t *testing.T) {
	const n = 1 << 10
	dir := t.TempDir()
	p, err := codeletfft.NewOOCPlan(n,
		codeletfft.OOCSpillDir(dir),
		codeletfft.OOCMemoryBudget(oocTileBudget(t, n, 4)))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, n*16)
	for i := range raw {
		raw[i] = byte(i * 31)
	}
	src := filepath.Join(dir, "in.c128")
	if err := os.WriteFile(src, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "out.c128")
	if err := p.TransformFile(context.Background(), dst, src); err != nil {
		t.Fatal(err)
	}
	if err := p.InverseFile(context.Background(), dst, dst); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	for _, name := range []string{
		"ooc_prefetch_read_bytes_ch0_total",
		"ooc_prefetch_read_bytes_ch1_total",
		"ooc_prefetch_stalls_ch0_total",
		"ooc_phase_cols_read_bytes_total",
		"ooc_phase_rows_write_bytes_total",
		"ooc_transforms_total",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metric %s missing from snapshot", name)
		}
	}
	if snap["ooc_transforms_total"] != 2 {
		t.Fatalf("ooc_transforms_total = %v, want 2", snap["ooc_transforms_total"])
	}
	if !strings.Contains(p.MetricsText(), "ooc_prefetch_read_bytes_ch0_total") {
		t.Fatal("MetricsText missing per-channel counters")
	}
}

// TestOOCErrors covers the re-exported sentinels.
func TestOOCErrors(t *testing.T) {
	if _, err := codeletfft.NewOOCPlan(1000); !errors.Is(err, codeletfft.ErrUnsupportedLength) {
		t.Fatalf("N=1000: err = %v, want ErrUnsupportedLength", err)
	}
	if codeletfft.ErrCorruptSegment == nil {
		t.Fatal("ErrCorruptSegment must be non-nil")
	}
}
