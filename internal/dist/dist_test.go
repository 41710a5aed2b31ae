package dist

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codeletfft"
	"codeletfft/internal/fft"
	"codeletfft/internal/serve"
)

// newTestCluster stands up nWorkers in-process shard workers on a
// loopback transport and a coordinator over them. The caller's cfg is
// honored except Transport/Workers, which the helper owns, and the
// resident-session path, which is disabled: these tests pin the legacy
// one-shot path's exact counter identities (faults injected on Exec),
// which the resident path would bypass. Resident-path coverage lives
// in session_test.go's newResidentCluster.
func newTestCluster(t *testing.T, nWorkers int, cfg Config) (*Coordinator, *Loopback, []string) {
	t.Helper()
	lb := NewLoopback()
	addrs := make([]string, nWorkers)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("worker-%d", i)
		srv := serve.New(serve.Config{EnableShard: true, MaxN: 1 << 20, Peers: lb})
		lb.Register(addrs[i], srv.Handler())
	}
	cfg.Transport = lb
	cfg.Workers = addrs
	cfg.DisableResidentSessions = true
	c, err := newCoordinator(cfg)
	if err != nil {
		t.Fatalf("newCoordinator: %v", err)
	}
	t.Cleanup(c.Close)
	return c, lb, addrs
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
		name   string
		n      int
		factor func(int) (int, int)
	}{
		{"n=64/default", 64, nil},
		{"n=4096/default", 4096, nil},
		{"n=65536/16x4096", 1 << 16, func(int) (int, int) { return 1 << 4, 1 << 12 }},
		{"n=65536/256x256", 1 << 16, func(int) (int, int) { return 1 << 8, 1 << 8 }},
		{"n=65536/4096x16", 1 << 16, func(int) (int, int) { return 1 << 12, 1 << 4 }},
		{"n=1048576/default", 1 << 20, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _, _ := newTestCluster(t, 3, Config{Factor: tc.factor})
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
			if got := counter(t, c, "dist_local_shards_total"); got != 0 {
				t.Fatalf("local_shards_total = %d, want 0", got)
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
// with correct output, and the fault counters must be exactly
// consistent with the injected faults: with hedging off, every fault
// the transport delivered is one failed RPC and one retry — no
// degradation, no local shards.
func TestClusterWorkerDiesMidStream(t *testing.T) {
	var dead atomic.Bool
	var faults atomic.Int64
	c, lb, addrs := newTestCluster(t, 3, Config{
		ShardVecs: 8,
		// Generous circuit threshold keeps the dead worker in rotation,
		// so the fault count is driven purely by placement — the
		// counter identity below holds regardless.
		CircuitThreshold: 1 << 30,
		BackoffBase:      time.Microsecond,
	})
	victim := addrs[1]
	lb.Fault = func(addr string, req serve.ShardFrame) error {
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

	f := faults.Load()
	if f == 0 {
		t.Fatalf("no faults were injected; placement never chose %s", victim)
	}
	if got := counter(t, c, "dist_rpc_errors_total"); got != f {
		t.Errorf("rpc_errors_total = %d, want exactly %d (injected faults)", got, f)
	}
	if got := counter(t, c, "dist_retries_total"); got != f {
		t.Errorf("retries_total = %d, want exactly %d (every fault retried once)", got, f)
	}
	if got := counter(t, c, "dist_degraded_total"); got != 0 {
		t.Errorf("degraded_total = %d, want 0", got)
	}
	if got := counter(t, c, "dist_local_shards_total"); got != 0 {
		t.Errorf("local_shards_total = %d, want 0", got)
	}
	if got := counter(t, c, "dist_hedges_total"); got != 0 {
		t.Errorf("hedges_total = %d, want 0 with hedging disabled", got)
	}
	// Attempts = successes + failures; every shard eventually succeeded
	// remotely, so attempts == shards + faults.
	shards := counter(t, c, "dist_shards_total")
	if got := counter(t, c, "dist_rpc_attempts_total"); got != shards+f {
		t.Errorf("rpc_attempts_total = %d, want shards+faults = %d", got, shards+f)
	}
}

// TestClusterCircuitBreakerSheds verifies that a persistently failing
// worker trips its circuit and is bypassed without per-call errors once
// open: after the trip, transforms keep succeeding and the error count
// stops growing.
func TestClusterCircuitBreakerSheds(t *testing.T) {
	var faults atomic.Int64
	c, lb, addrs := newTestCluster(t, 3, Config{
		ShardVecs:       8,
		BackoffBase:     time.Microsecond,
		CircuitOpenBase: time.Hour, // stays open for the whole test
	})
	victim := addrs[0]
	lb.Fault = func(addr string, req serve.ShardFrame) error {
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
	}
	// The circuit opens after DefaultCircuitThreshold consecutive
	// failures and never half-opens (OpenBase = 1h), so the victim saw
	// exactly threshold faults.
	if f := faults.Load(); f != DefaultCircuitThreshold {
		t.Errorf("victim saw %d faults, want exactly %d before the circuit opened", f, DefaultCircuitThreshold)
	}
	if got := counter(t, c, "dist_rpc_errors_total"); got != faults.Load() {
		t.Errorf("rpc_errors_total = %d, want %d", got, faults.Load())
	}
}

// TestClusterHedgingWins makes one worker artificially slow and checks
// that hedged requests fire, win, and keep the error counters at zero.
func TestClusterHedgingWins(t *testing.T) {
	var slow atomic.Value // string: address to slow down
	slow.Store("")
	c, lb, addrs := newTestCluster(t, 3, Config{
		ShardVecs:  8,
		HedgeDelay: time.Millisecond,
	})
	lb.Fault = func(addr string, req serve.ShardFrame) error {
		if addr == slow.Load().(string) {
			time.Sleep(100 * time.Millisecond)
		}
		return nil
	}
	slow.Store(addrs[2])
	const n = 1 << 12
	data := noise(n, 3)
	want := singleNode(t, data)
	if err := c.Transform(context.Background(), data); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if d := maxDiff(data, want); d > 1e-12*float64(n) {
		t.Fatalf("output deviates by %g", d)
	}
	hedges := counter(t, c, "dist_hedges_total")
	wins := counter(t, c, "dist_hedge_wins_total")
	if hedges == 0 {
		t.Fatalf("no hedges fired despite a slow worker")
	}
	// Every shard whose primary is the stalled worker must be rescued
	// by its hedge; a hedge fired for a merely slow-ish healthy primary
	// may legitimately lose, so wins ≤ hedges rather than equality.
	if wins == 0 {
		t.Errorf("hedge_wins_total = 0, want > 0 (hedges must beat the 100ms stall)")
	}
	if wins > hedges {
		t.Errorf("hedge_wins_total = %d > hedges_total = %d", wins, hedges)
	}
	if got := counter(t, c, "dist_rpc_errors_total"); got != 0 {
		t.Errorf("rpc_errors_total = %d, want 0 — hedge losers must not count as failures", got)
	}
	if got := counter(t, c, "dist_retries_total"); got != 0 {
		t.Errorf("retries_total = %d, want 0", got)
	}
	slow.Store("") // let the stalled handlers finish fast on cleanup
}

// TestClusterDegradesToLocal checks both degradation tiers: a
// coordinator with no workers at all runs the whole transform locally,
// and one whose entire worker set fails runs each stranded shard
// locally — in both cases the client sees success and correct output.
func TestClusterDegradesToLocal(t *testing.T) {
	t.Run("no workers", func(t *testing.T) {
		c, err := New()
		if err != nil {
			t.Fatalf("New: %v", err)
		}
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
	})
	t.Run("all workers failing", func(t *testing.T) {
		c, lb, _ := newTestCluster(t, 2, Config{
			ShardVecs:   32,
			MaxAttempts: 2,
			BackoffBase: time.Microsecond,
			// Keep circuits closed so the membership still looks
			// eligible and the dist path (not whole-transform
			// degradation) is exercised.
			CircuitThreshold: 1 << 30,
		})
		lb.Fault = func(string, serve.ShardFrame) error {
			return errors.New("injected: cluster-wide outage")
		}
		const n = 1 << 12 // 64×64 default split → 2+2 shards at ShardVecs=32
		data := noise(n, 5)
		want := singleNode(t, data)
		if err := c.Transform(context.Background(), data); err != nil {
			t.Fatalf("Transform: %v", err)
		}
		if d := maxDiff(data, want); d > 1e-12*float64(n) {
			t.Fatalf("fallback output deviates by %g", d)
		}
		shards := counter(t, c, "dist_shards_total")
		if got := counter(t, c, "dist_local_shards_total"); got != shards {
			t.Errorf("local_shards_total = %d, want every shard (%d) to fall back", got, shards)
		}
		if got := counter(t, c, "dist_degraded_total"); got != 0 {
			t.Errorf("degraded_total = %d, want 0 (per-shard fallback, not whole-transform)", got)
		}
	})
}

// TestClusterConcurrentTransforms hammers one coordinator from many
// goroutines — primarily a race-detector target for the shared
// membership, metrics, and plan-cache state.
func TestClusterConcurrentTransforms(t *testing.T) {
	c, _, _ := newTestCluster(t, 3, Config{ShardVecs: 8})
	const n = 1 << 10
	want := singleNode(t, noise(n, 7))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := noise(n, 7)
			if err := c.Transform(context.Background(), data); err != nil {
				errs <- err
				return
			}
			if d := maxDiff(data, want); d > 1e-12*float64(n) {
				errs <- fmt.Errorf("output deviates by %g", d)
			}
		}()
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
		if err := c.Transform(context.Background(), make([]complex128, n)); err == nil {
			t.Errorf("Transform accepted N=%d", n)
		}
	}
}

// TestClusterContextCancellation checks a cancelled context aborts the
// distributed path with ctx.Err instead of hanging or degrading.
func TestClusterContextCancellation(t *testing.T) {
	c, lb, _ := newTestCluster(t, 2, Config{ShardVecs: 4, BackoffBase: time.Microsecond})
	block := make(chan struct{})
	var once sync.Once
	lb.Fault = func(string, serve.ShardFrame) error {
		once.Do(func() { close(block) })
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-block
		cancel()
	}()
	err := c.Transform(ctx, noise(1<<12, 8))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Transform after cancel: err = %v, want context.Canceled", err)
	}
}

// TestMembershipFileWatch verifies workers added through the polled
// membership file join the eligible set.
func TestMembershipFileWatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "members")
	if err := os.WriteFile(path, []byte("# seed\nw0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewMembership(MemberConfig{
		Static:           []string{"static0"},
		File:             path,
		FilePollInterval: 5 * time.Millisecond,
	})
	m.Start()
	defer m.Close()
	if got := len(m.Addrs()); got != 2 {
		t.Fatalf("initial Addrs = %d, want 2 (static + file)", got)
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
		if len(m.Addrs()) == 3 {
			return
		}
	}
	t.Fatalf("file-added worker never joined; Addrs = %v", m.Addrs())
}

// TestMembershipCircuit exercises the breaker state machine directly:
// threshold trips, backoff doubling, and success reset.
func TestMembershipCircuit(t *testing.T) {
	m := NewMembership(MemberConfig{
		Static:           []string{"w0", "w1"},
		CircuitThreshold: 3,
		OpenBase:         20 * time.Millisecond,
		OpenMax:          80 * time.Millisecond,
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

// TestRingProperties checks the consistent-hash ring: determinism,
// distinct successors in order, exclusion, and bounded remapping when a
// worker departs.
func TestRingProperties(t *testing.T) {
	addrs := []string{"a", "b", "c", "d"}
	r := buildRing(addrs)
	keepAll := func(string) bool { return true }
	for key := uint64(0); key < 1000; key += 37 {
		s1 := r.successors(key, 3, keepAll)
		s2 := r.successors(key, 3, keepAll)
		if len(s1) != 3 {
			t.Fatalf("successors(%d) = %v, want 3 distinct workers", key, s1)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("successors not deterministic at key %d: %v vs %v", key, s1, s2)
			}
			for j := i + 1; j < len(s1); j++ {
				if s1[i] == s1[j] {
					t.Fatalf("duplicate successor at key %d: %v", key, s1)
				}
			}
		}
	}
	// Removing one worker must not remap keys between surviving workers.
	small := buildRing([]string{"a", "b", "c"})
	moved := 0
	for key := uint64(0); key < 4000; key += 13 {
		before := r.successors(key, 1, keepAll)[0]
		after := small.successors(key, 1, keepAll)[0]
		if before != "d" && before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between surviving workers after a departure", moved)
	}
	// Exclusion skips the home worker but keeps ring order.
	key := uint64(12345)
	full := r.successors(key, 2, keepAll)
	excl := r.successors(key, 1, func(a string) bool { return a != full[0] })
	if len(excl) != 1 || excl[0] != full[1] {
		t.Fatalf("exclusion of %s gave %v, want [%s]", full[0], excl, full[1])
	}
}

// TestNearSquareFactor pins the default factorization shape.
func TestNearSquareFactor(t *testing.T) {
	for _, tc := range []struct{ n, n1, n2 int }{
		{4, 2, 2}, {8, 2, 4}, {64, 8, 8}, {1 << 13, 64, 128}, {1 << 20, 1 << 10, 1 << 10},
	} {
		n1, n2 := NearSquareFactor(tc.n)
		if n1 != tc.n1 || n2 != tc.n2 {
			t.Errorf("NearSquareFactor(%d) = %d×%d, want %d×%d", tc.n, n1, n2, tc.n1, tc.n2)
		}
	}
}

// TestLocalKernelConfig: the degraded path honors Config.LocalKernel —
// every kernel's local output matches the reference single-node
// transform to rounding.
func TestLocalKernelConfig(t *testing.T) {
	const n = 1 << 12
	for _, k := range fft.ConcreteKernels() {
		c, err := New(WithLocalKernel(k))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		data := noise(n, 7)
		want := singleNode(t, data)
		if err := c.Transform(context.Background(), data); err != nil {
			c.Close()
			t.Fatalf("%v: Transform: %v", k, err)
		}
		c.Close()
		if d := maxDiff(data, want); d > 1e-12*float64(n) {
			t.Fatalf("%v: degraded output deviates by %g", k, d)
		}
	}
}

// TestColumnPhaseParityAcrossPaths pins the promise the shared twiddle
// table makes: with serve.Config.Kernel and Config.LocalKernel on the
// same kernel, the three ways a transform's shards can execute —
// resident sessions, one-shot shard RPCs, and the coordinator's local
// fallback for every shard — produce one and the same bits, and on the
// SoA radix-4 codelets those are the serial FourStepPlan's.
func TestColumnPhaseParityAcrossPaths(t *testing.T) {
	const n = 1 << 12 // 64×64 default split
	for _, k := range []fft.Kernel{fft.KernelSoARadix4, fft.KernelRadix4} {
		run := func(name string, resident, outage bool) []complex128 {
			t.Helper()
			lb := NewLoopback()
			addrs := []string{"worker-0", "worker-1"}
			for _, a := range addrs {
				srv := serve.New(serve.Config{EnableShard: true, MaxN: 1 << 20, Peers: lb, Kernel: k})
				lb.Register(a, srv.Handler())
			}
			if outage {
				lb.Fault = func(string, serve.ShardFrame) error { return errors.New("injected: cluster-wide outage") }
			}
			c, err := newCoordinator(Config{
				Transport: lb, Workers: addrs, LocalKernel: k,
				ShardVecs: 16, MaxAttempts: 2, BackoffBase: time.Microsecond,
				CircuitThreshold:        1 << 30, // keep the dist path: per-shard fallback, not whole-transform
				DisableResidentSessions: !resident,
			})
			if err != nil {
				t.Fatalf("%v/%s: %v", k, name, err)
			}
			defer c.Close()
			data := noise(n, 17)
			if err := c.Transform(context.Background(), data); err != nil {
				t.Fatalf("%v/%s: Transform: %v", k, name, err)
			}
			resOK, local := counter(t, c, "dist_resident_ok_total"), counter(t, c, "dist_local_shards_total")
			if (resOK == 1) != resident || (local == counter(t, c, "dist_shards_total") && local > 0) != outage {
				t.Fatalf("%v/%s ran on the wrong path: resident_ok=%d local_shards=%d", k, name, resOK, local)
			}
			return data
		}
		paths := map[string][]complex128{
			"resident": run("resident", true, false),
			"one-shot": run("one-shot", false, false),
			"local":    run("local", false, true),
		}
		want := paths["one-shot"]
		if k == fft.KernelSoARadix4 {
			fs, err := fft.NewFourStep(NearSquareFactor(n))
			if err != nil {
				t.Fatal(err)
			}
			want = noise(n, 17)
			fs.Transform(want)
		}
		for name, got := range paths {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v: %s path bin %d = %v, want %v (not bitwise identical)", k, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLocalShardAllocsConstant is the regression test for the local
// shard path rebuilding Twiddles(TotalN) and a Scratch on every shard:
// once the plan and the two-level table are warm, a locally executed
// column shard allocates a few hundred bytes at most whatever TotalN is
// (the rebuilt table alone was 8·TotalN: 8 MiB at 2^20).
func TestLocalShardAllocsConstant(t *testing.T) {
	for _, k := range []fft.Kernel{fft.KernelSoARadix4, fft.KernelRadix4} {
		c, err := New(WithLocalKernel(k))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, shape := range [][2]int{{64, 1 << 12}, {1024, 1 << 20}} {
			f := serve.ShardFrame{Op: serve.OpColumns, VecLen: shape[0], TotalN: shape[1], Start: 3, Data: noise(4*shape[0], 5)}
			if err := c.execShardLocal(f); err != nil { // warm plan, tables, pools
				t.Fatal(err)
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if err := c.execShardLocal(f); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			// The bound leaves room for a Scratch or frame the pool lost
			// to a GC (or to -race, which drops a share of Puts) — all
			// O(VecLen) — and none for anything O(TotalN).
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
				t.Errorf("%v VecLen=%d TotalN=%d: local shard allocates %d B/shard, want O(1)", k, shape[0], shape[1], per)
			}
		}
	}
}
