package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codeletfft"
	"codeletfft/internal/fft"
	"codeletfft/internal/serve"
)

// noErr fails t on a non-nil error.
func noErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// newTestCluster stands up nWorkers in-process workers on a loopback
// transport and a coordinator over them. The caller's cfg is honored
// except Client/Workers, which the helper owns; ProbeInterval stays
// at its zero default unless the caller sets it, so membership learns
// of a bad worker from the data path alone.
func newTestCluster(t *testing.T, nWorkers int, cfg Config) (*Coordinator, *Loopback, []string) {
	t.Helper()
	c, lb, addrs, _ := newTestClusterOf(t, nWorkers, cfg, serve.Config{})
	return c, lb, addrs
}

// newTestClusterOf is newTestCluster with the workers' own config
// (EnableShard, MaxN and Client are the helper's) and their servers. The
// test must leave no session open on any worker and no pooled complex
// buffer out: a worker the coordinator fell silent on is left to its
// idle timer, which a test ends early with reapSilent.
func newTestClusterOf(t *testing.T, nWorkers int, cfg Config, scfg serve.Config) (*Coordinator, *Loopback, []string, []*serve.Server) {
	t.Helper()
	_, complexes0 := serve.PoolsOutstanding()
	lb := NewLoopback()
	client := &http.Client{Transport: lb}
	addrs := make([]string, nWorkers)
	srvs := make([]*serve.Server, nWorkers)
	scfg.EnableShard, scfg.MaxN, scfg.Client = true, 1<<20, client
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://worker-%d", i)
		srvs[i] = serve.New(scfg)
		lb.Register(addrs[i], srvs[i].Handler())
	}
	cfg.Client = client
	cfg.Workers = addrs
	c := New(cfg)
	t.Cleanup(func() {
		c.Close()
		for i, srv := range srvs {
			if open := workerMetric(t, srv, "sess_open"); open != 0 {
				t.Errorf("worker %s: %v sessions left open", addrs[i], open)
			}
		}
		if _, complexes := serve.PoolsOutstanding(); complexes != complexes0 {
			t.Errorf("%d complex buffers left out", complexes-complexes0)
		}
	})
	return c, lb, addrs, srvs
}

// workerMetric reads one of srv's instruments, failing t when srv has
// none of that name (a missing gauge must not read as 0).
func workerMetric(t *testing.T, srv *serve.Server, name string) float64 {
	t.Helper()
	v, ok := srv.Registry().Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not in the worker's registry", name)
	}
	return v
}

// reapSilent ends the sessions still open on srv among those opened
// since the id first — what srv's idle timer does sessionTTL after the
// coordinator stopped talking to it, which a test does not wait out —
// and returns how many it ended.
func reapSilent(t *testing.T, srv *serve.Server, first uint64) int {
	t.Helper()
	open := func() int { return int(workerMetric(t, srv, "sess_open")) }
	before := open()
	for id := first + 1; id <= sessionIDs.Load(); id++ {
		enc, err := serve.EncodeSessionFrame(serve.SessionFrame{Op: serve.OpSessClose, ID: id})
		noErr(t, err)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "http://worker/fft/shard", bytes.NewReader(enc)))
		if rec.Code != http.StatusOK {
			t.Fatalf("close %d: status %d", id, rec.Code)
		}
	}
	return before - open()
}

// noise returns a deterministic pseudo-random signal.
func noise(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

// singleNode runs the reference single-node transform on a copy.
func singleNode(t *testing.T, data []complex128) []complex128 {
	t.Helper()
	ref := append([]complex128(nil), data...)
	hp, err := codeletfft.CachedHostPlan(len(ref))
	if err != nil {
		t.Fatalf("CachedHostPlan(%d): %v", len(ref), err)
	}
	if err := hp.Transform(ref); err != nil {
		t.Fatalf("reference Transform: %v", err)
	}
	return ref
}

func maxDiff(a, b []complex128) float64 {
	var worst float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func counter(t *testing.T, c *Coordinator, name string) int64 {
	t.Helper()
	snap := c.Registry().Snapshot()
	v, ok := snap[name]
	if !ok {
		t.Fatalf("metric %q not in registry snapshot", name)
	}
	return int64(v)
}

// TestClusterMatchesSingleNode sweeps sizes up to 2^20 and several
// explicit (n1,n2) factorizations of a fixed size through a 3-worker
// loopback cluster and compares against the single-node transform.
func TestClusterMatchesSingleNode(t *testing.T) {
	cases := []struct {
		name string
		n    int
		n1   int // 0: the near-square split
	}{
		{"n=64/default", 64, 0},
		{"n=4096/default", 4096, 0},
		{"n=65536/16x4096", 1 << 16, 1 << 4},
		{"n=65536/256x256", 1 << 16, 1 << 8},
		{"n=65536/4096x16", 1 << 16, 1 << 12},
		{"n=1048576/default", 1 << 20, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _, _ := newTestCluster(t, 3, Config{n1: tc.n1})
			data := noise(tc.n, 1)
			want := singleNode(t, data)
			if err := c.Transform(context.Background(), data); err != nil {
				t.Fatalf("Transform: %v", err)
			}
			tol := 1e-12 * float64(tc.n)
			if d := maxDiff(data, want); d > tol {
				t.Fatalf("cluster output deviates from single node by %g (tol %g)", d, tol)
			}
			if got := counter(t, c, "dist_degraded_total"); got != 0 {
				t.Fatalf("degraded_total = %d, want 0", got)
			}
			if got := counter(t, c, "dist_resident_ok_total"); got != 1 {
				t.Fatalf("resident_ok_total = %d, want 1", got)
			}
		})
	}
}

// TestClusterInverseRoundTrip checks Transform∘Inverse ≈ identity
// through the cluster path.
func TestClusterInverseRoundTrip(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, Config{})
	const n = 1 << 12
	orig := noise(n, 2)
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
}

// TestClusterWorkerDiesMidStream kills one of three workers partway
// through a stream of transforms. Every transform must still succeed
// with correct output on the resident path, and the fault counters must
// be exactly consistent with the injected faults: every fault the
// transport delivered is one failed RPC and one retried session — no
// degradation.
func TestClusterWorkerDiesMidStream(t *testing.T) {
	var dead atomic.Bool
	var faults atomic.Int64
	c, lb, addrs := newTestCluster(t, 3, Config{
		// Generous circuit threshold keeps the dead worker in rotation,
		// so every transform after the death meets it.
		circuitThreshold: 1 << 30,
		backoffBase:      time.Microsecond,
	})
	victim := addrs[1]
	lb.SessionFault = func(_ context.Context, addr string, _ serve.SessionOp) error {
		if addr == victim && dead.Load() {
			faults.Add(1)
			return errors.New("injected: connection reset")
		}
		return nil
	}

	const n = 1 << 12
	const rounds = 8
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		if round == rounds/2 {
			dead.Store(true) // the worker dies mid-stream
		}
		data := noise(n, int64(round))
		want := singleNode(t, data)
		if err := c.Transform(ctx, data); err != nil {
			t.Fatalf("round %d: Transform: %v", round, err)
		}
		if d := maxDiff(data, want); d > 1e-12*float64(n) {
			t.Fatalf("round %d: output deviates by %g", round, d)
		}
	}

	// A dead worker fails the session's first frame, its open, so each
	// transform after the death meets exactly one fault.
	f := faults.Load()
	if f != rounds/2 {
		t.Fatalf("%d faults injected, want one per transform after the death (%d)", f, rounds/2)
	}
	if got := counter(t, c, "dist_rpc_errors_total"); got != f {
		t.Errorf("rpc_errors_total = %d, want exactly %d (injected faults)", got, f)
	}
	if got := counter(t, c, "dist_worker_"+sanitizeAddr(victim)+"_errors_total"); got != f {
		t.Errorf("victim errors_total = %d, want %d", got, f)
	}
	if got := counter(t, c, "dist_retries_total"); got != f {
		t.Errorf("retries_total = %d, want exactly %d (every fault retried once)", got, f)
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != rounds {
		t.Errorf("resident_ok_total = %d, want %d (every transform stayed resident)", got, rounds)
	}
	if got := counter(t, c, "dist_degraded_total"); got != 0 {
		t.Errorf("degraded_total = %d, want 0", got)
	}
}

// TestClusterCircuitBreakerSheds is the regression test for the data
// path being invisible to membership: with no health prober
// (ProbeInterval 0, the cluster.Config{} default) a worker that refuses
// every session frame must trip its circuit after CircuitThreshold
// transforms and stop being opened — it used to be re-picked forever.
func TestClusterCircuitBreakerSheds(t *testing.T) {
	var faults atomic.Int64
	c, lb, addrs := newTestCluster(t, 3, Config{
		backoffBase:     time.Microsecond,
		circuitOpenBase: time.Hour, // stays open for the whole test
	})
	victim := addrs[0]
	lb.SessionFault = func(_ context.Context, addr string, _ serve.SessionOp) error {
		if addr == victim {
			faults.Add(1)
			return errors.New("injected: down for good")
		}
		return nil
	}
	ctx := context.Background()
	const n = 1 << 12
	for round := 0; round < 10; round++ {
		data := noise(n, int64(round))
		want := singleNode(t, data)
		if err := c.Transform(ctx, data); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if d := maxDiff(data, want); d > 1e-12*float64(n) {
			t.Fatalf("round %d: output deviates by %g", round, d)
		}
		wantEligible := 3
		if round+1 >= defaultCircuitThreshold {
			wantEligible = 2 // one failed open per transform so far
		}
		if got := c.members.EligibleCount(); got != wantEligible {
			t.Fatalf("round %d: EligibleCount = %d, want %d", round, got, wantEligible)
		}
	}
	// The circuit opens after defaultCircuitThreshold consecutive
	// failures and never half-opens (OpenBase = 1h), so the victim saw
	// exactly threshold faults.
	if f := faults.Load(); f != defaultCircuitThreshold {
		t.Errorf("victim saw %d faults, want exactly %d before the circuit opened", f, defaultCircuitThreshold)
	}
	if got := counter(t, c, "dist_rpc_errors_total"); got != faults.Load() {
		t.Errorf("rpc_errors_total = %d, want %d", got, faults.Load())
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != 10 {
		t.Errorf("resident_ok_total = %d, want 10", got)
	}
}

// TestClusterCircuitTripsOnLatePhase is the regression test for a
// worker that fails only a late phase: it answers every open and cols
// frame and refuses the rows fetch. Each answered RPC used to count as a
// success and reset the failure count the refused one had raised, so
// its circuit never opened and every transform paid an abandoned
// session and a backoff for it. Success is now one completed session.
func TestClusterCircuitTripsOnLatePhase(t *testing.T) {
	var faults atomic.Int64
	c, lb, addrs, srvs := newTestClusterOf(t, 3, Config{
		backoffBase:     time.Microsecond,
		circuitOpenBase: time.Hour, // stays open for the whole test
	}, serve.Config{})
	victim := addrs[0]
	lb.SessionFault = func(_ context.Context, addr string, op serve.SessionOp) error {
		if addr == victim && op == serve.OpSessRows {
			faults.Add(1)
			return errors.New("injected: rows fetch fails")
		}
		return nil
	}
	const n = 1 << 12
	const rounds = 10
	first := sessionIDs.Load()
	for round := 0; round < rounds; round++ {
		data := noise(n, int64(round))
		want := singleNode(t, data)
		if err := c.Transform(context.Background(), data); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if d := maxDiff(data, want); d > 1e-12*float64(n) {
			t.Fatalf("round %d: output deviates by %g", round, d)
		}
	}
	if f := faults.Load(); f != defaultCircuitThreshold {
		t.Errorf("victim saw %d faults, want exactly %d before the circuit opened", f, defaultCircuitThreshold)
	}
	if opens := workerMetric(t, srvs[0], "sess_opens_total"); opens != defaultCircuitThreshold {
		t.Errorf("victim was opened %v sessions, want %d and none once its circuit opened", opens, defaultCircuitThreshold)
	}
	// Its rows fetches never reached it and it was sent no close: each of
	// those sessions waits for the victim's idle timer.
	if got := reapSilent(t, srvs[0], first); got != defaultCircuitThreshold {
		t.Errorf("the victim held %d sessions open, want one per failed fetch (%d)", got, defaultCircuitThreshold)
	}
	if got := c.members.EligibleCount(); got != 2 {
		t.Errorf("EligibleCount = %d, want 2", got)
	}
	if got := counter(t, c, "dist_resident_ok_total"); got != rounds {
		t.Errorf("resident_ok_total = %d, want %d", got, rounds)
	}
}

// TestClusterDegradesToLocal checks both ways a transform ends on the
// coordinator's own engine: a coordinator with no workers at all never
// tries a session, and one whose entire worker set fails runs out of
// workers to retry on — in both cases the client sees success and
// correct output.
func TestClusterDegradesToLocal(t *testing.T) {
	t.Run("no workers", func(t *testing.T) {
		c := New(Config{})
		defer c.Close()
		const n = 1 << 12
		data := noise(n, 4)
		want := singleNode(t, data)
		if err := c.Transform(context.Background(), data); err != nil {
			t.Fatalf("Transform: %v", err)
		}
		if d := maxDiff(data, want); d > 1e-12*float64(n) {
			t.Fatalf("degraded output deviates by %g", d)
		}
		if got := counter(t, c, "dist_degraded_total"); got != 1 {
			t.Errorf("degraded_total = %d, want 1", got)
		}
		if got := counter(t, c, "dist_resident_fallback_total"); got != 0 {
			t.Errorf("resident_fallback_total = %d, want 0 (no session was tried)", got)
		}
	})
	t.Run("all workers failing", func(t *testing.T) {
		c, lb, _ := newTestCluster(t, 2, Config{
			MaxAttempts: 2,
			backoffBase: time.Microsecond,
			// Keep circuits closed so the membership still looks
			// eligible and sessions are tried.
			circuitThreshold: 1 << 30,
		})
		lb.SessionFault = func(context.Context, string, serve.SessionOp) error {
			return errors.New("injected: cluster-wide outage")
		}
		const n = 1 << 12
		data := noise(n, 5)
		want := singleNode(t, data)
		if err := c.Transform(context.Background(), data); err != nil {
			t.Fatalf("Transform: %v", err)
		}
		if d := maxDiff(data, want); d > 1e-12*float64(n) {
			t.Fatalf("fallback output deviates by %g", d)
		}
		if got := counter(t, c, "dist_resident_fallback_total"); got != 1 {
			t.Errorf("resident_fallback_total = %d, want 1", got)
		}
		if got := counter(t, c, "dist_degraded_total"); got != 1 {
			t.Errorf("degraded_total = %d, want 1", got)
		}
		if got := counter(t, c, "dist_resident_ok_total"); got != 0 {
			t.Errorf("resident_ok_total = %d, want 0", got)
		}
	})
}

// TestClusterConcurrentTransforms hammers one coordinator from many
// goroutines, forward and inverse at once — a race-detector target for
// the shared membership, metrics and plan-cache state and for the
// per-slab transpositions, whose goroutines write disjoint slices of one
// pooled buffer and then of the caller's array. The cluster runs the
// four-step's own steps, so every output is compared bit for bit with
// the serial plan's, not to a tolerance.
func TestClusterConcurrentTransforms(t *testing.T) {
	c, _, _, _ := newTestClusterOf(t, 3, Config{}, serve.Config{})
	const n = 1 << 14 // 128×128: slabs of 42/43/43, two tiles and a ragged edge each way
	fs, err := fft.NewFourStep(fft.NearSquareFactor(n))
	if err != nil {
		t.Fatal(err)
	}
	wantFwd, wantInv := noise(n, 7), noise(n, 7)
	noErr(t, fs.Transform(wantFwd))
	noErr(t, fs.InverseTransform(wantInv))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data, run, want := noise(n, 7), c.Transform, wantFwd
			if g%2 == 1 {
				run, want = c.Inverse, wantInv
			}
			if err := run(context.Background(), data); err != nil {
				errs <- err
				return
			}
			for i := range data {
				if data[i] != want[i] {
					errs <- fmt.Errorf("goroutine %d: bin %d = %v, want %v (not bitwise identical)", g, i, data[i], want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClusterRejectsBadN covers the input validation surface.
func TestClusterRejectsBadN(t *testing.T) {
	c, _, _ := newTestCluster(t, 1, Config{})
	for _, n := range []int{0, 1, 2, 3, 6, 1000} {
		if err := c.Transform(context.Background(), make([]complex128, n)); !errors.Is(err, fft.ErrUnsupportedLength) {
			t.Errorf("Transform(N=%d) = %v, want ErrUnsupportedLength", n, err)
		}
	}
}

// TestClusterContextCancellation checks a cancelled context aborts the
// transform with ctx.Err — no hang, no degradation, nobody blamed — and
// leaves the caller's data as it was.
func TestClusterContextCancellation(t *testing.T) {
	c, lb, _ := newTestCluster(t, 2, Config{backoffBase: time.Microsecond})
	block := make(chan struct{})
	var once sync.Once
	lb.SessionFault = func(context.Context, string, serve.SessionOp) error {
		once.Do(func() { close(block) })
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-block
		cancel()
	}()
	data := noise(1<<12, 8)
	orig := append([]complex128(nil), data...)
	err := c.Transform(ctx, data)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Transform after cancel: err = %v, want context.Canceled", err)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("cancelled transform wrote data[%d]", i)
		}
	}
	for _, name := range []string{"dist_rpc_errors_total", "dist_retries_total", "dist_degraded_total"} {
		if got := counter(t, c, name); got != 0 {
			t.Errorf("%s = %d after a cancellation, want 0", name, got)
		}
	}
}

// TestClusterInverseLeavesDataOnFailure holds Inverse to Transform's
// contract — data is written only by an attempt that completed. The
// conjugation identity's leading sweep used to run in place before the
// length check and before the first session, so a rejected or cancelled
// inverse handed back its input with every imaginary part negated.
func TestClusterInverseLeavesDataOnFailure(t *testing.T) {
	sameBits := func(t *testing.T, got, orig []complex128) {
		t.Helper()
		for i := range got {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(orig[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(orig[i])) {
				t.Fatalf("failed inverse wrote data[%d]: %v, was %v", i, got[i], orig[i])
			}
		}
	}
	t.Run("bad N", func(t *testing.T) {
		for _, workers := range []int{0, 1} { // the degraded path and the session path
			c, _, _ := newTestCluster(t, workers, Config{})
			for _, n := range []int{1, 2, 3, 6, 1000} {
				data := noise(n, int64(n))
				orig := append([]complex128(nil), data...)
				if err := c.Inverse(context.Background(), data); !errors.Is(err, fft.ErrUnsupportedLength) {
					t.Errorf("%d workers: Inverse(N=%d) = %v, want ErrUnsupportedLength", workers, n, err)
				}
				sameBits(t, data, orig)
			}
		}
	})
	t.Run("cancel mid-session", func(t *testing.T) {
		// Cancelled when the first rows fetch goes out: every slab has been
		// gathered (and conjugated) and shipped by then.
		c, lb, _ := newTestCluster(t, 2, Config{backoffBase: time.Microsecond})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		lb.SessionFault = func(_ context.Context, _ string, op serve.SessionOp) error {
			if op == serve.OpSessRows {
				cancel()
			}
			return nil
		}
		data := noise(1<<12, 9)
		orig := append([]complex128(nil), data...)
		if err := c.Inverse(ctx, data); !errors.Is(err, context.Canceled) {
			t.Fatalf("Inverse after cancel: err = %v, want context.Canceled", err)
		}
		sameBits(t, data, orig)
		if got := counter(t, c, "dist_degraded_total"); got != 0 {
			t.Errorf("dist_degraded_total = %d after a cancellation, want 0", got)
		}
	})
}

// TestMembershipFileWatch verifies workers added through the polled
// membership file join the list after the static workers, in file
// order, each address once.
func TestMembershipFileWatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "members")
	if err := os.WriteFile(path, []byte("# seed\nw0\nstatic0 # listed twice: kept where it first appears\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newMembership(Config{
		Workers:    []string{"static0"},
		MemberFile: path,
		filePoll:   5 * time.Millisecond,
	})
	defer m.Close()
	if got := addrsOf(m); !slices.Equal(got, []string{"static0", "w0"}) {
		t.Fatalf("initial workers = %v, want [static0 w0] (static, then file)", got)
	}
	// File mtimes can be coarse; rewrite until the poll visibly picks
	// the change up or the deadline passes.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := os.WriteFile(path, []byte("w0\nw1 # joined\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		_ = os.Chtimes(path, now, now)
		time.Sleep(10 * time.Millisecond)
		if slices.Equal(addrsOf(m), []string{"static0", "w0", "w1"}) {
			return
		}
	}
	t.Fatalf("file-added worker never joined; workers = %v", addrsOf(m))
}

// addrsOf returns m's worker addresses in member order.
func addrsOf(m *membership) []string {
	var out []string
	for _, w := range m.list() {
		out = append(out, w.addr)
	}
	return out
}

// TestMembershipCircuit exercises the breaker state machine directly:
// threshold trips, backoff doubling, and success reset.
func TestMembershipCircuit(t *testing.T) {
	m := newMembership(Config{
		Workers:          []string{"w0", "w1"},
		circuitThreshold: 3,
		circuitOpenBase:  20 * time.Millisecond,
		circuitOpenMax:   80 * time.Millisecond,
	})
	defer m.Close()
	if m.EligibleCount() != 2 {
		t.Fatalf("EligibleCount = %d, want 2", m.EligibleCount())
	}
	for i := 0; i < 2; i++ {
		m.ReportFailure("w0")
	}
	if m.EligibleCount() != 2 {
		t.Fatalf("circuit tripped below threshold")
	}
	m.ReportFailure("w0") // third consecutive failure trips it
	if m.EligibleCount() != 1 {
		t.Fatalf("EligibleCount = %d after trip, want 1", m.EligibleCount())
	}
	w := m.worker("w0")
	if open := w.openFor.Load(); open != int64(20*time.Millisecond) {
		t.Fatalf("first open window = %v, want 20ms", time.Duration(open))
	}
	m.ReportFailure("w0") // half-open failure doubles the window
	if open := w.openFor.Load(); open != int64(40*time.Millisecond) {
		t.Fatalf("second open window = %v, want 40ms", time.Duration(open))
	}
	m.ReportFailure("w0")
	m.ReportFailure("w0") // capped at OpenMax
	if open := w.openFor.Load(); open != int64(80*time.Millisecond) {
		t.Fatalf("capped open window = %v, want 80ms", time.Duration(open))
	}
	m.ReportSuccess("w0")
	if m.EligibleCount() != 2 {
		t.Fatalf("success did not close the circuit")
	}
	if w.fails.Load() != 0 || w.openFor.Load() != 0 {
		t.Fatalf("success did not reset breaker state")
	}
}

// TestDegradedDefaultKernel pins what a coordinator runs when it
// degrades: the facade's default plan — at this length the SoA radix-4
// schedule (fft.AutoKernel), bit for bit, forward and inverse — not the
// radix-2 reference internal/fft runs when handed KernelAuto directly.
func TestDegradedDefaultKernel(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	const n = 1 << 12
	pl, err := fft.NewPlan(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := fft.Twiddles(n)
	for _, tc := range []struct {
		name    string
		run     func(context.Context, []complex128) error
		inverse bool
	}{{"Transform", c.Transform, false}, {"Inverse", c.Inverse, true}} {
		got, want := noise(n, 21), noise(n, 21)
		if tc.inverse {
			noErr(t, pl.Schedule(w, fft.KernelSoARadix4, true).Run(want))
		} else {
			pl.TransformSoA(want, w, fft.KernelSoARadix4)
		}
		if err := tc.run(context.Background(), got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: bin %d = %v, want the SoA radix-4 schedule's %v", tc.name, i, got[i], want[i])
			}
		}
	}
	if got := counter(t, c, "dist_degraded_total"); got != 2 {
		t.Errorf("dist_degraded_total = %d, want 2", got)
	}
}

// TestColumnPhaseParityAcrossPaths pins the bitwise claim the shared
// four-step steps make: resident sessions produce the serial
// fft.FourStepPlan's bits however the transform is partitioned — over
// 1, 2 or 3 workers, when a worker dies mid-transform and the session is
// retried on fewer, and at factors below the 128 points where the
// workers' default plans once switched kernels. (Whole-transform
// degraded execution is the direct staged algorithm, not a four-step,
// and agrees to rounding only — TestClusterDegradesToLocal.)
func TestColumnPhaseParityAcrossPaths(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		workers int
		n1      int             // 0: the default near-square split
		dieAt   serve.SessionOp // the victim refuses this op; OpSessAck: nobody dies
	}{
		{"1 worker", 1 << 16, 1, 0, serve.OpSessAck},
		{"2 workers", 1 << 16, 2, 0, serve.OpSessAck},
		{"3 workers", 1 << 16, 3, 0, serve.OpSessAck}, // slabs of 85 / 85 / 86 rows and columns
		{"3 workers, one dies at cols", 1 << 16, 3, 0, serve.OpSessCols},
		{"2 workers, one dies at rows", 1 << 16, 2, 0, serve.OpSessRows},
		{"2 workers, 128×512", 1 << 16, 2, 128, serve.OpSessAck},
		{"3 workers, 128×512", 1 << 16, 3, 128, serve.OpSessAck}, // 42 / 43 / 43 rows, 170 / 171 / 171 columns
		{"3 workers, 64×64", 1 << 12, 3, 0, serve.OpSessAck},
		{"3 workers, 16×1024", 1 << 14, 3, 16, serve.OpSessAck},
	} {
		n1, n2 := fft.NearSquareFactor(tc.n)
		if tc.n1 > 0 {
			n1, n2 = tc.n1, tc.n/tc.n1
		}
		fs, err := fft.NewFourStep(n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		want := noise(tc.n, 17)
		noErr(t, fs.Transform(want))
		c, lb, addrs, srvs := newTestClusterOf(t, tc.workers, Config{backoffBase: time.Microsecond, n1: tc.n1}, serve.Config{})
		lb.SessionFault = func(_ context.Context, addr string, op serve.SessionOp) error {
			if op == tc.dieAt && addr == addrs[0] {
				return errors.New("injected: worker died mid-transform")
			}
			return nil
		}
		got := noise(tc.n, 17)
		first := sessionIDs.Load()
		if err := c.Transform(context.Background(), got); err != nil {
			t.Fatalf("%s: Transform: %v", tc.name, err)
		}
		reapSilent(t, srvs[0], first)
		wantRetries := int64(0)
		if tc.dieAt != serve.OpSessAck {
			wantRetries = 1
		}
		if ok, retries := counter(t, c, "dist_resident_ok_total"), counter(t, c, "dist_retries_total"); ok != 1 || retries != wantRetries {
			t.Fatalf("%s ran on the wrong path: resident_ok=%d retries=%d", tc.name, ok, retries)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: bin %d = %v, want %v (not bitwise identical)", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestSmallFactorsMatchFourStep covers the session path at 64-point
// factors, below the size where the default kernel rule picks SoA
// radix-4: the workers run the plan's own steps whatever that rule says,
// so forward and inverse equal the serial fft.FourStepPlan bit for bit,
// over three uneven slabs (21 / 21 / 22 rows and columns).
func TestSmallFactorsMatchFourStep(t *testing.T) {
	const n = 1 << 12
	fs, err := fft.NewFourStep(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _ := newTestCluster(t, 3, Config{n1: 64})
	ctx := context.Background()
	want, got := noise(n, 19), noise(n, 19)
	check := func(dir string) {
		t.Helper()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: bin %d = %v, the serial four-step gives %v", dir, i, got[i], want[i])
			}
		}
	}
	noErr(t, fs.Transform(want))
	if err := c.Transform(ctx, got); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	check("forward")
	noErr(t, fs.InverseTransform(want))
	if err := c.Inverse(ctx, got); err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	check("inverse")
	if ok, degraded := counter(t, c, "dist_resident_ok_total"), counter(t, c, "dist_degraded_total"); ok != 2 || degraded != 0 {
		t.Fatalf("ran on the wrong path: resident_ok=%d degraded=%d", ok, degraded)
	}
}
