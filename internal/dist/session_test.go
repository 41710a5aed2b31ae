package dist

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"codeletfft/internal/serve"
)

// newResidentCluster stands up a loopback cluster with the resident
// session path enabled and peer exchange wired. Workers whose index is
// in oldWorkers run with sessions disabled — an FFS1-only daemon, the
// mixed-version fleet case.
func newResidentCluster(t *testing.T, nWorkers int, cfg Config, oldWorkers ...int) (*Coordinator, *Loopback, []string) {
	t.Helper()
	old := map[int]bool{}
	for _, i := range oldWorkers {
		old[i] = true
	}
	lb := NewLoopback()
	addrs := make([]string, nWorkers)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("worker-%d", i)
		srv := serve.New(serve.Config{
			EnableShard:     true,
			MaxN:            1 << 20,
			Peers:           lb,
			DisableSessions: old[i],
		})
		lb.Register(addrs[i], srv.Handler())
	}
	cfg.Transport = lb
	cfg.Workers = addrs
	c, err := New(
		WithTransport(lb),
		WithWorkers(addrs...),
		WithShardVecs(cfg.ShardVecs),
		WithMaxAttempts(cfg.MaxAttempts),
		WithBackoff(cfg.BackoffBase, cfg.BackoffMax),
		WithFactor(cfg.Factor),
		WithResidentSessions(true),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c, lb, addrs
}

// TestResidentMatchesSingleNode sweeps sizes and worker counts through
// the resident session path and compares against the single-node
// transform. Every transform must complete resident — no fallback, no
// degradation.
func TestResidentMatchesSingleNode(t *testing.T) {
	for _, nw := range []int{1, 2, 4} {
		for _, n := range []int{1 << 6, 1 << 12, 1 << 16} {
			t.Run(fmt.Sprintf("w=%d/n=%d", nw, n), func(t *testing.T) {
				c, _, addrs := newResidentCluster(t, nw, Config{})
				data := noise(n, int64(n+nw))
				want := singleNode(t, data)
				if err := c.Transform(context.Background(), data); err != nil {
					t.Fatalf("Transform: %v", err)
				}
				if d := maxDiff(data, want); d > 1e-12*float64(n) {
					t.Fatalf("resident output deviates from single node by %g", d)
				}
				if got := counter(t, c, "dist_resident_ok_total"); got != 1 {
					t.Errorf("resident_ok_total = %d, want 1", got)
				}
				if got := counter(t, c, "dist_resident_fallback_total"); got != 0 {
					t.Errorf("resident_fallback_total = %d, want 0", got)
				}
				if got := counter(t, c, "dist_degraded_total"); got != 0 {
					t.Errorf("degraded_total = %d, want 0", got)
				}
				// The resident path feeds the same RPC accounting as the
				// one-shot path: open, cols, rows and close per worker.
				if got := counter(t, c, "dist_rpc_attempts_total"); got != int64(4*nw) {
					t.Errorf("rpc_attempts_total = %d, want 4 per worker = %d", got, 4*nw)
				}
				if got := counter(t, c, "dist_rpc_seconds_count"); got != int64(4*nw) {
					t.Errorf("rpc_seconds observations = %d, want %d", got, 4*nw)
				}
				for _, addr := range addrs {
					if got := counter(t, c, "dist_worker_"+sanitizeAddr(addr)+"_rpc_seconds_count"); got != 4 {
						t.Errorf("worker %s rpc_seconds observations = %d, want 4", addr, got)
					}
				}
			})
		}
	}
}

// TestResidentInverseRoundTrip checks Transform∘Inverse ≈ identity on
// the resident path.
func TestResidentInverseRoundTrip(t *testing.T) {
	c, _, _ := newResidentCluster(t, 3, Config{})
	const n = 1 << 12
	orig := noise(n, 11)
	data := append([]complex128(nil), orig...)
	ctx := context.Background()
	if err := c.Transform(ctx, data); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if err := c.Inverse(ctx, data); err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	if d := maxDiff(data, orig); d > 1e-11 {
		t.Fatalf("round trip error %g", d)
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != 2 {
		t.Errorf("resident_ok_total = %d, want 2", got)
	}
}

// TestResidentBytesMoved pins the communication-avoidance invariant:
// a resident transform moves each element over the coordinator's wire
// once out and once back, so per-transform bytes stay within 2% (frame
// headers) of 2·16·N.
func TestResidentBytesMoved(t *testing.T) {
	c, _, _ := newResidentCluster(t, 3, Config{})
	const n = 1 << 16
	const rounds = 3
	for round := 0; round < rounds; round++ {
		data := noise(n, int64(round))
		if err := c.Transform(context.Background(), data); err != nil {
			t.Fatalf("round %d: Transform: %v", round, err)
		}
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != rounds {
		t.Fatalf("resident_ok_total = %d, want %d", got, rounds)
	}
	elems := counter(t, c, "dist_resident_elems_total")
	if elems != rounds*n {
		t.Fatalf("resident_elems_total = %d, want %d", elems, rounds*n)
	}
	bytes := counter(t, c, "dist_resident_bytes_total")
	payload := 2 * 16 * elems
	if bytes < payload {
		t.Errorf("resident_bytes_total = %d < payload floor %d — undercounting", bytes, payload)
	}
	if limit := payload + payload/50; bytes > limit {
		t.Errorf("resident_bytes_total = %d exceeds 1.02·2·16·N = %d — not communication-avoiding", bytes, limit)
	}
	// The legacy counter covers both paths, so it must have absorbed the
	// resident traffic too.
	if moved := counter(t, c, "dist_bytes_moved_total"); moved != bytes {
		t.Errorf("bytes_moved_total = %d, want %d (resident-only traffic)", moved, bytes)
	}
}

// TestResidentMixedVersionFallback runs a fleet where one worker is an
// old FFS1-only daemon. The first transform must detect the rejected
// open, cache the worker as legacy, fall back one-shot, and still
// produce correct output; the next transform must go resident on the
// remaining session-capable workers.
func TestResidentMixedVersionFallback(t *testing.T) {
	c, _, _ := newResidentCluster(t, 3, Config{}, 1) // worker-1 is FFS1-only
	const n = 1 << 12
	ctx := context.Background()

	data := noise(n, 21)
	want := singleNode(t, data)
	if err := c.Transform(ctx, data); err != nil {
		t.Fatalf("mixed-version Transform: %v", err)
	}
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("fallback output deviates by %g", d)
	}
	if got := counter(t, c, "dist_capability_legacy_total"); got != 1 {
		t.Errorf("capability_legacy_total = %d, want 1", got)
	}
	if got := counter(t, c, "dist_resident_fallback_total"); got != 1 {
		t.Errorf("resident_fallback_total = %d, want 1", got)
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != 0 {
		t.Errorf("resident_ok_total = %d, want 0 after the mixed-version round", got)
	}

	// Second transform: the legacy worker is cached out of the resident
	// candidate set, so the remaining workers complete resident.
	data = noise(n, 22)
	want = singleNode(t, data)
	if err := c.Transform(ctx, data); err != nil {
		t.Fatalf("second Transform: %v", err)
	}
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("resident output deviates by %g", d)
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != 1 {
		t.Errorf("resident_ok_total = %d, want 1 on the second round", got)
	}
	if got := counter(t, c, "dist_capability_legacy_total"); got != 1 {
		t.Errorf("capability_legacy_total grew to %d; the cache should suppress re-probing", got)
	}
}

// TestResidentSessionFaults kills a worker at each phase of the
// session protocol in turn. A death before completion must fall back
// to the one-shot path with correct output; a death at close must not
// matter (the transform already completed resident).
func TestResidentSessionFaults(t *testing.T) {
	cases := []struct {
		op           serve.SessionOp
		wantResident int64 // resident_ok_total after the faulted transform
		wantFall     int64
	}{
		{serve.OpSessOpen, 0, 1},
		{serve.OpSessCols, 0, 1},
		{serve.OpSessExchange, 0, 1},
		{serve.OpSessRows, 0, 1},
		{serve.OpSessClose, 1, 0}, // close failures are best-effort
	}
	const n = 1 << 12
	for _, tc := range cases {
		t.Run(tc.op.String(), func(t *testing.T) {
			c, lb, addrs := newResidentCluster(t, 3, Config{BackoffBase: 1})
			victim := addrs[0]
			var fired atomic.Int64
			lb.SessionFault = func(addr string, op serve.SessionOp) error {
				if op == tc.op && addr == victim {
					fired.Add(1)
					return errors.New("injected: worker died mid-session")
				}
				return nil
			}
			data := noise(n, int64(tc.op))
			want := singleNode(t, data)
			if err := c.Transform(context.Background(), data); err != nil {
				t.Fatalf("Transform with %s fault: %v", tc.op, err)
			}
			if d := maxDiff(data, want); d > 1e-12*float64(n) {
				t.Fatalf("output deviates by %g after %s fault", d, tc.op)
			}
			if fired.Load() == 0 {
				t.Fatalf("fault for %s never fired", tc.op)
			}
			if got := counter(t, c, "dist_resident_ok_total"); got != tc.wantResident {
				t.Errorf("resident_ok_total = %d, want %d", got, tc.wantResident)
			}
			if got := counter(t, c, "dist_resident_fallback_total"); got != tc.wantFall {
				t.Errorf("resident_fallback_total = %d, want %d", got, tc.wantFall)
			}
		})
	}
}

// TestResidentTruncatedFrame delivers a partially written cols frame:
// the worker must reject it cleanly (no panic, no session corruption)
// and the coordinator must fall back with correct output.
func TestResidentTruncatedFrame(t *testing.T) {
	c, lb, addrs := newResidentCluster(t, 2, Config{BackoffBase: 1})
	victim := addrs[0]
	var fired atomic.Int64
	lb.TruncateFrame = func(addr string, op serve.SessionOp, frame []byte) []byte {
		if op == serve.OpSessCols && addr == victim {
			fired.Add(1)
			return frame[:len(frame)-8] // drop half an element: partial write
		}
		return frame
	}
	const n = 1 << 12
	data := noise(n, 31)
	want := singleNode(t, data)
	if err := c.Transform(context.Background(), data); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("output deviates by %g", d)
	}
	if fired.Load() == 0 {
		t.Fatalf("truncation never fired")
	}
	if got := counter(t, c, "dist_resident_fallback_total"); got != 1 {
		t.Errorf("resident_fallback_total = %d, want 1", got)
	}
}

// TestResidentTruncatedResponse delivers a short read of the rows
// response: the coordinator's strict decode must reject it and fall
// back with correct output.
func TestResidentTruncatedResponse(t *testing.T) {
	c, lb, addrs := newResidentCluster(t, 2, Config{BackoffBase: 1})
	victim := addrs[1]
	var fired atomic.Int64
	lb.TruncateResponse = func(addr string, op serve.SessionOp, frame []byte) []byte {
		if op == serve.OpSessRows && addr == victim {
			fired.Add(1)
			return frame[:len(frame)/2]
		}
		return frame
	}
	const n = 1 << 12
	data := noise(n, 32)
	want := singleNode(t, data)
	if err := c.Transform(context.Background(), data); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("output deviates by %g", d)
	}
	if fired.Load() == 0 {
		t.Fatalf("truncation never fired")
	}
	if got := counter(t, c, "dist_resident_fallback_total"); got != 1 {
		t.Errorf("resident_fallback_total = %d, want 1", got)
	}
}

// TestResidentFaultChurn alternates healthy and faulted transforms on
// one coordinator. Every round must produce correct output regardless
// of where the previous round died — the pooled-buffer discipline must
// neither leak a buffer the next round needs nor hand one buffer to
// two owners (which -race would catch as concurrent writes).
func TestResidentFaultChurn(t *testing.T) {
	c, lb, addrs := newResidentCluster(t, 3, Config{BackoffBase: 1})
	ops := []serve.SessionOp{serve.OpSessOpen, serve.OpSessCols, serve.OpSessExchange, serve.OpSessRows}
	var faultOp atomic.Int64
	faultOp.Store(-1)
	lb.SessionFault = func(addr string, op serve.SessionOp) error {
		if int64(op) == faultOp.Load() && addr == addrs[1] {
			return errors.New("injected: churn")
		}
		return nil
	}
	const n = 1 << 12
	for round := 0; round < 12; round++ {
		if round%2 == 0 {
			faultOp.Store(-1) // healthy round
		} else {
			faultOp.Store(int64(ops[(round/2)%len(ops)]))
		}
		data := noise(n, int64(100+round))
		want := singleNode(t, data)
		if err := c.Transform(context.Background(), data); err != nil {
			t.Fatalf("round %d: Transform: %v", round, err)
		}
		if d := maxDiff(data, want); d > 1e-12*float64(n) {
			t.Fatalf("round %d: output deviates by %g", round, d)
		}
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != 6 {
		t.Errorf("resident_ok_total = %d, want 6 (healthy rounds)", got)
	}
	if got := counter(t, c, "dist_resident_fallback_total"); got != 6 {
		t.Errorf("resident_fallback_total = %d, want 6 (faulted rounds)", got)
	}
}

// TestResidentDisabled pins the opt-out: with WithResidentSessions
// false the coordinator never opens a session even though the
// transport supports them.
func TestResidentDisabled(t *testing.T) {
	lb := NewLoopback()
	addrs := []string{"worker-0", "worker-1"}
	for _, a := range addrs {
		srv := serve.New(serve.Config{EnableShard: true, MaxN: 1 << 20, Peers: lb})
		lb.Register(a, srv.Handler())
	}
	c, err := New(
		WithTransport(lb),
		WithWorkers(addrs...),
		WithResidentSessions(false),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	const n = 1 << 12
	data := noise(n, 41)
	want := singleNode(t, data)
	if err := c.Transform(context.Background(), data); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("output deviates by %g", d)
	}
	if got := counter(t, c, "dist_sessions_total"); got != 0 {
		t.Errorf("sessions_total = %d, want 0 with resident sessions disabled", got)
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != 0 {
		t.Errorf("resident_ok_total = %d, want 0", got)
	}
}
