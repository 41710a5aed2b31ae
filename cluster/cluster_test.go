package cluster_test

import (
	"context"
	"errors"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"codeletfft"
	"codeletfft/cluster"
)

// TestLoopbackClusterMatchesSingleNode drives the public API end to
// end: a 3-worker loopback cluster must reproduce the single-node
// parallel transform.
func TestLoopbackClusterMatchesSingleNode(t *testing.T) {
	cl, err := cluster.NewLoopback(3, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 1 << 14
	rng := rand.New(rand.NewSource(1))
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	want := append([]complex128(nil), data...)
	hp, err := codeletfft.CachedHostPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := hp.Transform(want); err != nil {
		t.Fatalf("reference Transform: %v", err)
	}
	if err := cl.TransformCtx(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if d := cmplx.Abs(data[i] - want[i]); d > 1e-12*float64(n) {
			t.Fatalf("bin %d deviates by %g", i, d)
		}
	}
	snap := cl.Snapshot()
	if snap["dist_transforms_total"] != 1 {
		t.Errorf("dist_transforms_total = %v, want 1", snap["dist_transforms_total"])
	}
	if snap["dist_degraded_total"] != 0 {
		t.Errorf("dist_degraded_total = %v, want 0", snap["dist_degraded_total"])
	}
	if cl.MetricsText() == "" {
		t.Error("MetricsText returned nothing")
	}
}

// TestLoopbackClusterRoundTrip checks Inverse undoes Transform through
// the public API.
func TestLoopbackClusterRoundTrip(t *testing.T) {
	cl, err := cluster.NewLoopback(2, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 1 << 10
	rng := rand.New(rand.NewSource(2))
	orig := make([]complex128, n)
	for i := range orig {
		orig[i] = complex(rng.Float64(), rng.Float64())
	}
	data := append([]complex128(nil), orig...)
	ctx := context.Background()
	if err := cl.TransformCtx(ctx, data); err != nil {
		t.Fatal(err)
	}
	if err := cl.InverseCtx(ctx, data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if d := cmplx.Abs(data[i] - orig[i]); d > 1e-11 {
			t.Fatalf("round trip bin %d error %g", i, d)
		}
	}
}

// TestInverseCtxLeavesDataOnFailure: an inverse that fails — on a length
// the cluster does not take, or under a context already cancelled —
// returns the caller's array bit for bit as it got it, imaginary parts
// included.
func TestInverseCtxLeavesDataOnFailure(t *testing.T) {
	cl, err := cluster.NewLoopback(2, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		n    int
		want error
	}{
		{"bad N", context.Background(), 1000, codeletfft.ErrUnsupportedLength},
		{"cancelled", cancelled, 1 << 10, context.Canceled},
	} {
		rng := rand.New(rand.NewSource(4))
		data := make([]complex128, tc.n)
		for i := range data {
			data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		orig := append([]complex128(nil), data...)
		if err := cl.InverseCtx(tc.ctx, data); !errors.Is(err, tc.want) {
			t.Errorf("%s: InverseCtx = %v, want %v", tc.name, err, tc.want)
		}
		for i := range data {
			if data[i] != orig[i] {
				t.Fatalf("%s: failed inverse wrote data[%d]: %v, was %v", tc.name, i, data[i], orig[i])
			}
		}
	}
}

func TestNewLoopbackRejectsZeroWorkers(t *testing.T) {
	if _, err := cluster.NewLoopback(0, cluster.Config{}); err == nil {
		t.Fatal("NewLoopback(0) succeeded")
	}
}

// TestClusterImplementsPlan drives the cluster through the unified
// codeletfft.Plan interface — the context-free methods and the batch
// path — exactly as interface-generic serving code would.
func TestClusterImplementsPlan(t *testing.T) {
	cl, err := cluster.NewLoopback(2, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var p codeletfft.Plan = cl

	const n = 1 << 10
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	data := append([]complex128(nil), x...)
	if err := p.Transform(data); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if d := cmplx.Abs(data[i] - x[i]); d > 1e-10 {
			t.Fatalf("roundtrip bin %d deviates by %g", i, d)
		}
	}

	batch := [][]complex128{
		append([]complex128(nil), x...),
		append([]complex128(nil), x...),
	}
	if err := p.TransformBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := p.InverseBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := range batch[0] {
		if d := cmplx.Abs(batch[0][i] - batch[1][i]); d > 0 {
			t.Fatalf("batch rows disagree at %d", i)
		}
	}

	// A bad row's error names its batch index.
	err = p.TransformBatch([][]complex128{x, make([]complex128, 100)})
	if err == nil || !strings.Contains(err.Error(), "batch element 1") {
		t.Fatalf("bad batch row error %v does not name element 1", err)
	}

	// Canceled contexts surface through the ctx variants.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.TransformCtx(ctx, data); err == nil {
		t.Fatal("TransformCtx ignored a canceled context")
	}
}
