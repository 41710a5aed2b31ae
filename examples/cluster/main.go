// Example cluster runs a complete distributed FFT inside one process:
// a coordinator factoring transforms four-step over loopback workers
// speaking the real session protocol. It demonstrates the public
// codeletfft/cluster API — transform, verify against the single-node
// engine, then kill the worker set mid-run and watch the coordinator
// degrade gracefully instead of failing.
//
//	go run ./examples/cluster
//	go run ./examples/cluster -logn 18 -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/cmplx"
	"math/rand"
	"time"

	"codeletfft"
	"codeletfft/cluster"
)

func main() {
	var (
		logN    = flag.Int("logn", 16, "transform length: N=2^logn")
		workers = flag.Int("workers", 3, "loopback worker count")
	)
	flag.Parse()
	n := 1 << *logN

	cl, err := cluster.NewLoopback(*workers, cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(1))
	signal := make([]complex128, n)
	for i := range signal {
		signal[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	// Reference: the single-node parallel engine on a copy.
	want := append([]complex128(nil), signal...)
	hp, err := codeletfft.CachedHostPlan(n)
	if err != nil {
		log.Fatal(err)
	}
	if err := hp.Transform(want); err != nil {
		log.Fatal(err)
	}

	// The same transform through the cluster: gathered into columns,
	// column FFTs + twiddles and row FFTs run by the workers in one
	// resident session, transposed back.
	data := append([]complex128(nil), signal...)
	ctx := context.Background()
	start := time.Now()
	if err := cl.TransformCtx(ctx, data); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	var worst float64
	for i := range data {
		if d := cmplx.Abs(data[i] - want[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("N=2^%d over %d workers: %v, max deviation from single node %.3g\n",
		*logN, *workers, elapsed, worst)

	// Round trip back to the input.
	if err := cl.InverseCtx(ctx, data); err != nil {
		log.Fatal(err)
	}
	var rt float64
	for i := range data {
		if d := cmplx.Abs(data[i] - signal[i]); d > rt {
			rt = d
		}
	}
	fmt.Printf("forward + inverse round trip error %.3g\n", rt)

	snap := cl.Snapshot()
	if elems := snap["dist_resident_elems_total"]; elems > 0 {
		// The communication-avoiding invariant: the coordinator's wire
		// carries each element once out and once back — 32 payload
		// bytes — plus a small fixed header/handshake overhead.
		fmt.Printf("resident sessions ok %v (fallbacks %v), coordinator wire %.2f bytes/element (payload floor 32)\n",
			snap["dist_resident_ok_total"], snap["dist_resident_fallback_total"],
			snap["dist_resident_bytes_total"]/elems)
	}
	fmt.Printf("session RPCs %v, errors %v, retries %v\n",
		snap["dist_rpc_attempts_total"], snap["dist_rpc_errors_total"], snap["dist_retries_total"])

	// Degradation: a cluster whose only worker is unreachable (nothing
	// listens on port 1) still answers every transform — the session's
	// open fails, the worker is blamed, nobody is left, and the transform
	// runs locally; once the worker's circuit breaker trips, later
	// transforms skip the dead address entirely. The client never sees a
	// cluster-induced failure.
	down, err := cluster.New(cluster.Config{
		Workers:      []string{"http://127.0.0.1:1"},
		MaxAttempts:  2,
		ShardTimeout: time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer down.Close()
	deg := append([]complex128(nil), signal...)
	if err := down.TransformCtx(ctx, deg); err != nil {
		log.Fatal(err)
	}
	var degWorst float64
	for i := range deg {
		if d := cmplx.Abs(deg[i] - want[i]); d > degWorst {
			degWorst = d
		}
	}
	dsnap := down.Snapshot()
	fmt.Printf("dead-worker cluster still answered (max deviation %.3g): rpc_errors=%v degraded=%v\n",
		degWorst, dsnap["dist_rpc_errors_total"], dsnap["dist_degraded_total"])
}
