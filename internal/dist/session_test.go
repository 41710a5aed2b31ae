package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codeletfft/internal/fft"
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
				// Open, cols and rows per worker: the rows reply ends the
				// session, and there is no close round.
				if got := counter(t, c, "dist_rpc_attempts_total"); got != int64(3*nw) {
					t.Errorf("rpc_attempts_total = %d, want 3 per worker = %d", got, 3*nw)
				}
				if got := counter(t, c, "dist_rpc_seconds_count"); got != int64(3*nw) {
					t.Errorf("rpc_seconds observations = %d, want %d", got, 3*nw)
				}
				if got := counter(t, c, "dist_sessions_total"); got != int64(nw) {
					t.Errorf("sessions_total = %d, want one per worker = %d", got, nw)
				}
				for _, addr := range addrs {
					if got := counter(t, c, "dist_worker_"+sanitizeAddr(addr)+"_rpc_seconds_count"); got != 3 {
						t.Errorf("worker %s rpc_seconds observations = %d, want 3", addr, got)
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
// true: correct output computed entirely on the resident path, the
// expected retries, the victim and only the victim blamed, no session
// left open on any survivor, and no pooled buffer lost — the only
// complex buffers still out are the rows buffers of the sessions still
// open: at most one, on the victim, when the frame the fault stopped
// never reached it and it was sent no close. That one waits for the
// victim's idle timer, which reapSilent stands in for.
func faultRun(t *testing.T, nWorkers int, inject func(lb *Loopback, victim string), wantRetries int64) {
	t.Helper()
	frames0, complexes0 := serve.PoolsOutstanding()
	c, lb, addrs, srvs := newTestClusterOf(t, nWorkers, Config{backoffBase: time.Microsecond}, serve.Config{})
	victim := addrs[0]
	inject(lb, victim)

	const n = 1 << 12
	data := noise(n, 31)
	want := singleNode(t, data)
	first := sessionIDs.Load()
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
	if wantRetries > 0 && snap["dist_worker_"+sanitizeAddr(victim)+"_errors_total"] == 0 {
		t.Errorf("victim %s was not blamed", victim)
	}
	var open int64 // sessions still open, cluster-wide
	for i, srv := range srvs {
		left := int64(workerMetric(t, srv, "sess_open"))
		open += left
		if i == 0 {
			if left > 1 {
				t.Errorf("victim %s: %d sessions open, want at most the abandoned one", victim, left)
			}
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
	reapSilent(t, srvs[0], first)
}

// TestResidentSessionFaults kills a worker at each phase of the session
// protocol in turn. A death before completion must cost one retry on
// the survivors — never the coordinator's own engine; the exchange row
// is the one that proves a worker's failed push is held against the
// silent peer and not the pusher. A healthy transform sends no close at
// all — the rows reply ends each session — so a worker that would die
// at close never meets its fault.
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
			if got, want := fired.Load() > 0, tc.op != serve.OpSessClose; got != want {
				t.Fatalf("fault for %s fired: %v, want %v", tc.op, got, want)
			}
		})
	}
}

// TestSessionColsDeadlineEndsSession: a cols request whose context ends
// mid-step ends the worker's session with the step. Worker 0's push to
// worker 1 stalls until the coordinator's ShardTimeout ends the cols
// request; the coordinator blames worker 0 and sends it no close, and
// the failed step has already returned its rows buffer.
func TestSessionColsDeadlineEndsSession(t *testing.T) {
	const shardTimeout = 50 * time.Millisecond
	c, lb, addrs, srvs := newTestClusterOf(t, 2, Config{ShardTimeout: shardTimeout, backoffBase: time.Microsecond}, serve.Config{})
	var stalled atomic.Int64
	lb.SessionFault = func(ctx context.Context, addr string, op serve.SessionOp) error {
		if op == serve.OpSessExchange && addr == addrs[1] {
			stalled.Add(1)
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	const n = 1 << 12
	data := noise(n, 81)
	want := singleNode(t, data)
	noErr(t, c.Transform(context.Background(), data))
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("output deviates by %g", d)
	}
	if stalled.Load() == 0 {
		t.Fatal("no push stalled")
	}
	if got := counter(t, c, "dist_worker_"+sanitizeAddr(addrs[0])+"_errors_total"); got != 1 {
		t.Errorf("worker 0 blamed %d times, want 1", got)
	}
	if closes, open := workerMetric(t, srvs[0], "sess_closes_total"), workerMetric(t, srvs[0], "sess_open"); closes != 0 || open != 0 {
		t.Errorf("worker 0: %v closes, %v sessions open; want neither: its failed cols step ends the session", closes, open)
	}
}

// TestLoopbackHopPeeksOnlyForHooks: a loopback hop with no fault hook
// set passes the request body on unread; only a hook needs the op peeked
// out of the frame header, and the peek's allocations (the header bytes,
// a reader and a MultiReader) are the production path's no more.
func TestLoopbackHopPeeksOnlyForHooks(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds allocate in their instrumentation and drop sync.Pool puts")
	}
	_, lb, addrs, _ := newTestClusterOf(t, 1, Config{}, serve.Config{})
	client := &http.Client{Transport: lb}
	close := serve.SessionFrame{Op: serve.OpSessClose, ID: 1} // acked: no session to end
	hop := func() {
		if _, err := serve.PostSessionFrame(context.Background(), client, addrs[0], close, nil); err != nil {
			t.Fatal(err)
		}
	}
	hop()
	free := testing.AllocsPerRun(200, hop)
	lb.TruncateResponse = func(_ string, _ serve.SessionOp, body io.Reader) io.Reader { return body }
	hooked := testing.AllocsPerRun(200, hop)
	t.Logf("loopback hop: %.1f allocations with no hook, %.1f with one", free, hooked)
	if free >= hooked {
		t.Errorf("a hook-free hop allocates %.1f times, a hooked one %.1f: the body is still peeked", free, hooked)
	}
}

// TestResidentTruncatedFrame delivers partially written frames: a cols
// frame cut mid-payload, and an exchange push cut mid-payload on its way
// to the victim. The worker must reject each cleanly (no panic, no
// session corruption) — the victim's 400 to a push comes back to the
// coordinator as the pusher's 502 naming the victim — and the
// coordinator must retry on the other worker.
func TestResidentTruncatedFrame(t *testing.T) {
	for _, op := range []serve.SessionOp{serve.OpSessCols, serve.OpSessExchange} {
		t.Run(op.String(), func(t *testing.T) {
			var fired atomic.Int64
			faultRun(t, 2, func(lb *Loopback, victim string) {
				lb.TruncateFrame = func(addr string, o serve.SessionOp, body io.Reader) io.Reader {
					if o == op && addr == victim {
						fired.Add(1)
						return io.LimitReader(body, serve.SessionHeaderLen+24) // a partial write
					}
					return body
				}
			}, 1)
			if fired.Load() == 0 {
				t.Fatalf("truncation never fired")
			}
		})
	}
}

// TestResidentTruncatedResponse delivers a short read of the rows
// response: the coordinator's strict read must reject it and retry on
// the other worker.
func TestResidentTruncatedResponse(t *testing.T) {
	var fired atomic.Int64
	faultRun(t, 2, func(lb *Loopback, victim string) {
		lb.TruncateResponse = func(addr string, op serve.SessionOp, body io.Reader) io.Reader {
			if op == serve.OpSessRows && addr == victim {
				fired.Add(1)
				return io.LimitReader(body, serve.SessionHeaderLen+1000)
			}
			return body
		}
	}, 1)
	if fired.Load() == 0 {
		t.Fatalf("truncation never fired")
	}
}

// TestLoopbackRefusesBadFrame: a frame the caller got wrong — a payload
// that disagrees with its header — is refused by PostSessionFrame before
// the client sends it, so the loopback's worker never runs its handler
// and counts nothing against itself.
func TestLoopbackRefusesBadFrame(t *testing.T) {
	_, lb, addrs, srvs := newTestClusterOf(t, 1, Config{}, serve.Config{})
	frames0, complexes0 := serve.PoolsOutstanding()
	bad := serve.SessionFrame{Op: serve.OpSessExchange, ID: 1, VecLen: 4, VecCount: 4, Data: noise(15, 1)}
	if _, err := serve.PostSessionFrame(context.Background(), &http.Client{Transport: lb}, addrs[0], bad, nil); !errors.Is(err, serve.ErrBadFrame) {
		t.Fatalf("PostSessionFrame error = %v, want ErrBadFrame", err)
	}
	w := srvs[0].Registry().Snapshot()
	for _, name := range []string{"sess_exchanges_total", "sess_bad_total", "shard_bad_total", "shard_requests_total"} {
		if w[name] != 0 {
			t.Errorf("worker %s = %v, want 0: the handler saw the refused frame", name, w[name])
		}
	}
	if frames, complexes := serve.PoolsOutstanding(); frames != frames0 || complexes != complexes0 {
		t.Errorf("pools out of balance: %d frames, %d complex buffers", frames-frames0, complexes-complexes0)
	}
}

// TestHTTPExecShardFailureReleasesBuffers: a worker that drops the
// connection in the middle of a request costs the coordinator a
// transport error and nothing else — every pooled buffer of the call is
// back when PostSessionFrame returns.
func TestHTTPExecShardFailureReleasesBuffers(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadFull(r.Body, make([]byte, 100))
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer ts.Close()
	frames0, complexes0 := serve.PoolsOutstanding()
	cols := serve.SessionFrame{Op: serve.OpSessCols, ID: 1, VecLen: 64, VecCount: 16, Data: noise(64*16, 1)}
	for i := 0; i < 3; i++ {
		if _, err := serve.PostSessionFrame(context.Background(), serve.DefaultClient, ts.URL, cols, nil); err == nil {
			t.Fatal("PostSessionFrame succeeded against a worker that hung up")
		}
	}
	if frames, complexes := serve.PoolsOutstanding(); frames != frames0 || complexes != complexes0 {
		t.Errorf("pools out of balance after failed RPCs: %d frames, %d complex buffers outstanding",
			frames-frames0, complexes-complexes0)
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
	c, lb, addrs, srvs := newTestClusterOf(t, 3, Config{backoffBase: time.Microsecond}, serve.Config{})
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
	first := sessionIDs.Load()
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
	// response frames included — except the rows buffers of the sessions
	// still open: only on the faulted worker, whose frame never reached
	// it and which was sent no close, at most one per faulted round.
	var open int64
	for i, srv := range srvs {
		left := int64(workerMetric(t, srv, "sess_open"))
		if i != 1 && left != 0 {
			t.Errorf("worker %s: %d sessions left open", addrs[i], left)
		}
		open += left
	}
	if open > 6 {
		t.Errorf("%d sessions open after the churn, want at most one per faulted round", open)
	}
	frames, complexes := serve.PoolsOutstanding()
	if frames != frames0 || complexes-complexes0 != open {
		t.Errorf("pools out of balance after the churn: %d frames, %d complex buffers outstanding with %d sessions open",
			frames-frames0, complexes-complexes0, open)
	}
	reapSilent(t, srvs[1], first)
}

// TestSessionRPCDeadline is the regression test for session RPCs
// running under no deadline of their own: a worker that is stopped, not
// dead — it accepts the frame and never answers — must cost one
// ShardTimeout, not the caller's whole context.
func TestSessionRPCDeadline(t *testing.T) {
	const shardTimeout = 50 * time.Millisecond
	c, lb, addrs := newTestCluster(t, 3, Config{ShardTimeout: shardTimeout, backoffBase: time.Microsecond})
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
	c, _, _, _ := newTestClusterOf(t, 2, Config{circuitThreshold: 1}, serve.Config{MaxSessions: 1})
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
			// circuitThreshold 1: a single blamed 429 would have opened a
			// circuit.
			if got := c.members.EligibleCount(); got != 2 {
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

// TestSessionPhaseCancelsOnBlameOnly: a phase's RPCs are cancelled by
// the first error held against an address, and not by one that blames
// nobody — that one is a consequence (a peer's ended session) or
// back-pressure, and the failure behind it must still be met and blamed.
func TestSessionPhaseCancelsOnBlameOnly(t *testing.T) {
	for _, tc := range []struct {
		name   string
		err    error
		cancel bool
	}{
		{"blamed", &blameError{addr: "w0", err: errors.New("down")}, true},
		{"blames nobody", &serve.StatusError{Addr: "w0", Code: http.StatusConflict}, false},
	} {
		ws := []*residentWorker{{addr: "w0"}, {addr: "w1"}}
		errs := parallelWorkers(context.Background(), ws, func(ctx context.Context, rw *residentWorker) error {
			if rw.addr == "w0" {
				return tc.err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(50 * time.Millisecond):
				return nil
			}
		})
		if cancelled := errors.Is(errs[1], context.Canceled); cancelled != tc.cancel {
			t.Errorf("%s: the sibling was cancelled: %v, want %v", tc.name, cancelled, tc.cancel)
		}
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
		{"worker's own 500", &serve.StatusError{Addr: "w0", Code: http.StatusInternalServerError}, "w0"},
		{"draining 503: it is leaving", &serve.StatusError{Addr: "w0", Code: http.StatusServiceUnavailable}, "w0"},
		{"back-pressure 429", &serve.StatusError{Addr: "w0", Code: http.StatusTooManyRequests}, ""},
		{"a session ended under the step: 409", &serve.StatusError{Addr: "w0", Code: http.StatusConflict}, ""},
		{"failed push names the peer", &serve.StatusError{Addr: "w0", Code: http.StatusBadGateway, Peer: "w1"}, "w1"},
		{"wrapped status", fmt.Errorf("open: %w", &serve.StatusError{Addr: "w0", Code: http.StatusTooManyRequests}), ""},
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
			"dist_rpc_attempts_total": 9, "dist_sessions_total": 3, "dist_rpc_errors_total": 0, "dist_retries_total": 0,
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
		c, lb, addrs := newTestCluster(t, tc.workers, Config{backoffBase: time.Microsecond})
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

// TestSessionPlacementFollowsMemberOrder pins placement: a session runs
// on the eligible workers no earlier attempt of the transform blamed, in
// member order — the static workers, then the membership file's — at
// most min(N1, N2) of them, and the i-th takes slab i. Each open frame
// is decoded on its way to the worker for the slab it assigns.
func TestSessionPlacementFollowsMemberOrder(t *testing.T) {
	type open struct {
		id       uint64
		addr     string
		colStart int
	}
	var mu sync.Mutex
	var opens []open
	record := func(lb *Loopback) {
		lb.TruncateFrame = func(addr string, op serve.SessionOp, body io.Reader) io.Reader {
			if op != serve.OpSessOpen {
				return body
			}
			raw, err := io.ReadAll(body)
			if f, derr := serve.DecodeSessionFrame(raw); err == nil && derr == nil {
				mu.Lock()
				opens = append(opens, open{f.ID, addr, f.Spec.ColStart})
				mu.Unlock()
			}
			return bytes.NewReader(raw)
		}
	}
	// check transforms n points on c and holds the last session's opens
	// to want: worker i of want opened with slab i of the columns.
	check := func(t *testing.T, c *Coordinator, n int, want ...string) {
		t.Helper()
		mu.Lock()
		opens = nil
		mu.Unlock()
		noErr(t, c.Transform(context.Background(), noise(n, 1)))
		mu.Lock()
		defer mu.Unlock()
		var last uint64
		for _, o := range opens {
			last = max(last, o.id)
		}
		got := map[string]int{}
		for _, o := range opens {
			if o.id == last {
				got[o.addr] = o.colStart
			}
		}
		_, n2 := fft.NearSquareFactor(n)
		if len(got) != len(want) {
			t.Errorf("the session opened at these columns: %v, want on %v", got, want)
		}
		for i, addr := range want {
			if col, ok := got[addr]; !ok || col != i*n2/len(want) {
				t.Errorf("%s opened at column %d (or not at all: %v), want slab %d of %d at column %d",
					addr, col, !ok, i, len(want), i*n2/len(want))
			}
		}
	}

	t.Run("static order", func(t *testing.T) {
		c, lb, w := newTestCluster(t, 3, Config{})
		record(lb)
		check(t, c, 1<<12, w[0], w[1], w[2])
	})
	t.Run("retry skips the blamed worker", func(t *testing.T) {
		c, lb, w := newTestCluster(t, 3, Config{backoffBase: time.Microsecond})
		record(lb)
		lb.SessionFault = func(_ context.Context, addr string, op serve.SessionOp) error {
			if addr == w[1] && op == serve.OpSessOpen {
				return errors.New("injected: connection refused")
			}
			return nil
		}
		check(t, c, 1<<12, w[0], w[2])
		if got := counter(t, c, "dist_retries_total"); got != 1 {
			t.Errorf("dist_retries_total = %d, want 1", got)
		}
	})
	t.Run("membership file order", func(t *testing.T) {
		_, lb, w := newTestCluster(t, 3, Config{})
		record(lb)
		path := filepath.Join(t.TempDir(), "members")
		noErr(t, os.WriteFile(path, []byte(w[2]+"\n"+w[0]+"\n"+w[1]+"\n"), 0o644))
		c := New(Config{Client: &http.Client{Transport: lb}, MemberFile: path, filePoll: 5 * time.Millisecond})
		defer c.Close()
		check(t, c, 1<<12, w[2], w[0], w[1])
		// A rewritten file reorders the list under the running coordinator.
		reordered := []string{w[1], w[2], w[0]}
		for deadline := time.Now().Add(2 * time.Second); !slices.Equal(addrsOf(c.members), reordered); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the file's new order never took; workers = %v", addrsOf(c.members))
			}
			noErr(t, os.WriteFile(path, []byte(strings.Join(reordered, "\n")), 0o644))
			now := time.Now()
			_ = os.Chtimes(path, now, now)
		}
		check(t, c, 1<<12, reordered...)
	})
	t.Run("more workers than min(N1, N2)", func(t *testing.T) {
		c, lb, w := newTestCluster(t, 5, Config{})
		record(lb)
		check(t, c, 16, w[0], w[1], w[2], w[3]) // 4×4: four slabs
	})
}
