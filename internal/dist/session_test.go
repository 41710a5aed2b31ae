package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codeletfft/internal/serve"
)

// TestResidentMatchesSingleNode sweeps sizes and worker counts through
// the session path and compares against the single-node transform.
// Every transform must complete resident — no retry, no degradation.
func TestResidentMatchesSingleNode(t *testing.T) {
	for _, nw := range []int{1, 2, 4} {
		for _, n := range []int{1 << 6, 1 << 12, 1 << 16} {
			t.Run(fmt.Sprintf("w=%d/n=%d", nw, n), func(t *testing.T) {
				c, _, addrs := newTestCluster(t, nw, Config{})
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
				// Open, cols, rows and close per worker.
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
	c, _, _ := newTestCluster(t, 3, Config{})
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
	c, _, _ := newTestCluster(t, 3, Config{})
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
	// With no abandoned attempt, every byte moved belongs to a completed
	// transform.
	if moved := counter(t, c, "dist_bytes_moved_total"); moved != bytes {
		t.Errorf("bytes_moved_total = %d, want %d", moved, bytes)
	}
}

// faultRun is one transform through an nWorkers cluster with a fault on
// worker 0, checked against everything a fault on one worker must leave
// true: correct output computed entirely on the resident path, one
// retry, the victim and only the victim blamed, every surviving worker's
// session table empty, and no pooled buffer lost — the only buffers
// still out are the rows blocks of sessions that are still open (the
// victim's, when it was not told to close).
func faultRun(t *testing.T, nWorkers int, inject func(lb *Loopback, victim string), wantRetries int64) {
	t.Helper()
	frames0, complexes0 := serve.PoolsOutstanding()
	c, lb, addrs, srvs := newTestClusterOf(t, nWorkers, Config{BackoffBase: time.Microsecond}, serve.Config{})
	victim := addrs[0]
	inject(lb, victim)

	const n = 1 << 12
	data := noise(n, 31)
	want := singleNode(t, data)
	if err := c.Transform(context.Background(), data); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("output deviates by %g", d)
	}
	for name, want := range map[string]int64{
		"dist_resident_ok_total":       1,
		"dist_retries_total":           wantRetries,
		"dist_resident_fallback_total": 0,
		"dist_degraded_total":          0,
	} {
		if got := counter(t, c, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	snap := c.Registry().Snapshot()
	if snap["dist_worker_"+sanitizeAddr(victim)+"_errors_total"] == 0 {
		t.Errorf("victim %s was not blamed", victim)
	}
	var open int64 // sessions still open, cluster-wide
	for i, srv := range srvs {
		w := srv.Registry().Snapshot()
		left := int64(w["sess_opens_total"] - w["sess_closes_total"])
		open += left
		if i == 0 {
			continue
		}
		if left != 0 {
			t.Errorf("survivor %s: %d sessions left open", addrs[i], left)
		}
		if got := snap["dist_worker_"+sanitizeAddr(addrs[i])+"_errors_total"]; got != 0 {
			t.Errorf("survivor %s was blamed %v times", addrs[i], got)
		}
	}
	frames, complexes := serve.PoolsOutstanding()
	if frames != frames0 || complexes-complexes0 != open {
		t.Errorf("pools out of balance: %d frames, %d complex buffers outstanding with %d sessions open",
			frames-frames0, complexes-complexes0, open)
	}
}

// TestResidentSessionFaults kills a worker at each phase of the session
// protocol in turn. A death before completion must cost one retry on
// the survivors — never the coordinator's own engine; the exchange row
// is the one that proves a worker's failed push is held against the
// silent peer and not the pusher. A death at close must not matter (the
// transform had already completed).
func TestResidentSessionFaults(t *testing.T) {
	for _, tc := range []struct {
		op          serve.SessionOp
		wantRetries int64
	}{
		{serve.OpSessOpen, 1},
		{serve.OpSessCols, 1},
		{serve.OpSessExchange, 1},
		{serve.OpSessRows, 1},
		{serve.OpSessClose, 0},
	} {
		t.Run(tc.op.String(), func(t *testing.T) {
			var fired atomic.Int64
			faultRun(t, 3, func(lb *Loopback, victim string) {
				lb.SessionFault = func(_ context.Context, addr string, op serve.SessionOp) error {
					if op == tc.op && addr == victim {
						fired.Add(1)
						return errors.New("injected: worker died mid-session")
					}
					return nil
				}
			}, tc.wantRetries)
			if fired.Load() == 0 {
				t.Fatalf("fault for %s never fired", tc.op)
			}
		})
	}
}

// TestResidentTruncatedFrame delivers a partially written cols frame:
// the worker must reject it cleanly (no panic, no session corruption)
// and the coordinator must retry on the other worker.
func TestResidentTruncatedFrame(t *testing.T) {
	var fired atomic.Int64
	faultRun(t, 2, func(lb *Loopback, victim string) {
		lb.TruncateFrame = func(addr string, op serve.SessionOp, frame []byte) []byte {
			if op == serve.OpSessCols && addr == victim {
				fired.Add(1)
				return frame[:len(frame)-8] // drop half an element: partial write
			}
			return frame
		}
	}, 1)
	if fired.Load() == 0 {
		t.Fatalf("truncation never fired")
	}
}

// TestResidentTruncatedResponse delivers a short read of the rows
// response: the coordinator's strict decode must reject it and retry on
// the other worker.
func TestResidentTruncatedResponse(t *testing.T) {
	var fired atomic.Int64
	faultRun(t, 2, func(lb *Loopback, victim string) {
		lb.TruncateResponse = func(addr string, op serve.SessionOp, frame []byte) []byte {
			if op == serve.OpSessRows && addr == victim {
				fired.Add(1)
				return frame[:len(frame)/2]
			}
			return frame
		}
	}, 1)
	if fired.Load() == 0 {
		t.Fatalf("truncation never fired")
	}
}

// TestResidentFaultChurn alternates healthy and faulted transforms on
// one coordinator. Every round must produce correct output on the
// resident path regardless of where the previous round died — the
// pooled-buffer discipline must neither leak a buffer the next round
// needs nor hand one buffer to two owners (which -race would catch as
// concurrent writes).
func TestResidentFaultChurn(t *testing.T) {
	frames0, complexes0 := serve.PoolsOutstanding()
	c, lb, addrs, srvs := newTestClusterOf(t, 3, Config{BackoffBase: time.Microsecond}, serve.Config{})
	ops := []serve.SessionOp{serve.OpSessOpen, serve.OpSessCols, serve.OpSessExchange, serve.OpSessRows}
	var faultOp atomic.Int64
	faultOp.Store(-1)
	lb.SessionFault = func(_ context.Context, addr string, op serve.SessionOp) error {
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
	if got := counter(t, c, "dist_resident_ok_total"); got != 12 {
		t.Errorf("resident_ok_total = %d, want 12 (every round)", got)
	}
	if got := counter(t, c, "dist_retries_total"); got != 6 {
		t.Errorf("retries_total = %d, want 6 (faulted rounds)", got)
	}
	if got := counter(t, c, "dist_degraded_total"); got != 0 {
		t.Errorf("degraded_total = %d, want 0", got)
	}
	// Every pooled buffer is back — the loopback transport's request and
	// response frames included — except the rows blocks of the sessions
	// the faulted worker was not told to close.
	var open int64
	for _, srv := range srvs {
		w := srv.Registry().Snapshot()
		open += int64(w["sess_opens_total"] - w["sess_closes_total"])
	}
	frames, complexes := serve.PoolsOutstanding()
	if frames != frames0 || complexes-complexes0 != open {
		t.Errorf("pools out of balance after the churn: %d frames, %d complex buffers outstanding with %d sessions open",
			frames-frames0, complexes-complexes0, open)
	}
}

// TestSessionRPCDeadline is the regression test for session RPCs
// running under no deadline of their own: a worker that is stopped, not
// dead — it accepts the frame and never answers — must cost one
// ShardTimeout, not the caller's whole context.
func TestSessionRPCDeadline(t *testing.T) {
	const shardTimeout = 50 * time.Millisecond
	c, lb, addrs := newTestCluster(t, 3, Config{ShardTimeout: shardTimeout, BackoffBase: time.Microsecond})
	lb.SessionFault = func(ctx context.Context, addr string, _ serve.SessionOp) error {
		if addr == addrs[2] {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	const n = 1 << 12
	data := noise(n, 51)
	want := singleNode(t, data)
	start := time.Now()
	if err := c.Transform(context.Background(), data); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	// One timeout plus two healthy sessions' worth of work; 4× leaves the
	// race detector room and still tells one timeout from the parent's
	// none (the call hung until the caller's context ended).
	if d := time.Since(start); d < shardTimeout || d > 4*shardTimeout {
		t.Errorf("transform took %v, want about one ShardTimeout (%v)", d, shardTimeout)
	}
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("output deviates by %g", d)
	}
	if ok, retries := counter(t, c, "dist_resident_ok_total"), counter(t, c, "dist_retries_total"); ok != 1 || retries != 1 {
		t.Errorf("resident_ok=%d retries=%d, want 1 and 1", ok, retries)
	}
	if got := counter(t, c, "dist_worker_"+sanitizeAddr(addrs[2])+"_errors_total"); got != 1 {
		t.Errorf("stopped worker errors_total = %d, want 1", got)
	}
}

// TestBackPressureIsNotAFault is the regression test for a worker's
// "session table full" 429: it is an answer from a healthy worker, so
// the attempt is retried after the backoff with nobody blamed, no
// breaker moved and no error counted.
func TestBackPressureIsNotAFault(t *testing.T) {
	c, _, _, _ := newTestClusterOf(t, 2, Config{CircuitThreshold: 1}, serve.Config{MaxSessions: 1})
	const n = 1 << 14
	want := singleNode(t, noise(n, 61))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := noise(n, 61)
			if err := c.Transform(context.Background(), data); err != nil {
				t.Errorf("Transform: %v", err)
				return
			}
			if d := maxDiff(data, want); d > 1e-12*float64(n) {
				t.Errorf("output deviates by %g", d)
			}
			// CircuitThreshold 1: a single blamed 429 would have opened a
			// circuit.
			if got := c.Members().EligibleCount(); got != 2 {
				t.Errorf("EligibleCount = %d, want 2", got)
			}
		}()
	}
	wg.Wait()
	if got := counter(t, c, "dist_rpc_errors_total"); got != 0 {
		t.Errorf("rpc_errors_total = %d, want 0", got)
	}
	if got := counter(t, c, "dist_resident_ok_total") + counter(t, c, "dist_degraded_total"); got != 4 {
		t.Errorf("resident_ok + degraded = %d, want 4", got)
	}
}

// TestBlame pins the blame rule on the statuses a worker can answer.
func TestBlame(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"transport error", errors.New("connection refused"), "w0"},
		{"worker's own 500", &statusError{addr: "w0", code: http.StatusInternalServerError}, "w0"},
		{"draining 503: it is leaving", &statusError{addr: "w0", code: http.StatusServiceUnavailable}, "w0"},
		{"back-pressure 429", &statusError{addr: "w0", code: http.StatusTooManyRequests}, ""},
		{"failed push names the peer", &statusError{addr: "w0", code: http.StatusBadGateway, peer: "w1"}, "w1"},
		{"wrapped status", fmt.Errorf("open: %w", &statusError{addr: "w0", code: http.StatusTooManyRequests}), ""},
	} {
		if got := blame("w0", tc.err); got != tc.want {
			t.Errorf("%s: blame = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCounterContract asserts, once, the instruments the benchmark's
// probes and the CI gates read, on the four ways a transform can end.
func TestCounterContract(t *testing.T) {
	const n = 1 << 12
	outage := func(victims int) func(lb *Loopback, addrs []string) {
		return func(lb *Loopback, addrs []string) {
			lb.SessionFault = func(_ context.Context, addr string, _ serve.SessionOp) error {
				for _, v := range addrs[:victims] {
					if addr == v {
						return errors.New("injected: down")
					}
				}
				return nil
			}
		}
	}
	for _, tc := range []struct {
		name    string
		workers int
		inject  func(lb *Loopback, addrs []string)
		want    map[string]int64
	}{
		{"healthy", 3, outage(0), map[string]int64{
			"dist_rpc_attempts_total": 12, "dist_rpc_errors_total": 0, "dist_retries_total": 0,
			"dist_resident_ok_total": 1, "dist_resident_elems_total": n,
			"dist_resident_fallback_total": 0, "dist_degraded_total": 0,
		}},
		// The abandoned attempt's RPCs count as attempts (how many of the
		// survivors' opens landed before the cancel varies) but its bytes
		// are not resident bytes.
		{"one worker down", 3, outage(1), map[string]int64{
			"dist_rpc_errors_total": 1, "dist_retries_total": 1,
			"dist_resident_ok_total": 1, "dist_resident_elems_total": n,
			"dist_resident_fallback_total": 0, "dist_degraded_total": 0,
		}},
		{"every worker down", 1, outage(1), map[string]int64{
			"dist_rpc_attempts_total": 1, "dist_rpc_errors_total": 1, "dist_retries_total": 0,
			"dist_resident_ok_total": 0, "dist_resident_elems_total": 0, "dist_resident_bytes_total": 0,
			"dist_resident_fallback_total": 1, "dist_degraded_total": 1,
		}},
		{"no workers", 0, outage(0), map[string]int64{
			"dist_rpc_attempts_total": 0, "dist_rpc_errors_total": 0, "dist_retries_total": 0,
			"dist_resident_ok_total": 0, "dist_resident_fallback_total": 0, "dist_degraded_total": 1,
		}},
	} {
		c, lb, addrs := newTestCluster(t, tc.workers, Config{BackoffBase: time.Microsecond})
		tc.inject(lb, addrs)
		if err := c.Transform(context.Background(), noise(n, 71)); err != nil {
			t.Fatalf("%s: Transform: %v", tc.name, err)
		}
		tc.want["dist_transforms_total"] = 1
		tc.want["dist_transform_seconds_count"] = 1
		tc.want["dist_rpc_seconds_count"] = counter(t, c, "dist_rpc_attempts_total")
		for name, want := range tc.want {
			if got := counter(t, c, name); got != want {
				t.Errorf("%s: %s = %d, want %d", tc.name, name, got, want)
			}
		}
		if ok := counter(t, c, "dist_resident_ok_total"); ok == 1 {
			if b := counter(t, c, "dist_resident_bytes_total"); b < 32*n || b > 32*n+32*n/50 {
				t.Errorf("%s: resident_bytes_total = %d, want 32·N (+2%%)", tc.name, b)
			}
		}
		snap := c.Registry().Snapshot()
		for _, gone := range []string{"dist_shards_total", "dist_local_shards_total", "dist_hedges_total",
			"dist_hedge_wins_total", "dist_capability_legacy_total"} {
			if _, ok := snap[gone]; ok {
				t.Errorf("%s: %s is still registered", tc.name, gone)
			}
		}
	}
}
