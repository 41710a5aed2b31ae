package main

import (
	"fmt"
	"strings"
	"sync"

	"codeletfft"
	"codeletfft/internal/serve"
)

// runOps runs n verified ops per client, all clients at once, and
// returns the op clock times in nanoseconds. A failed or wrong op is an
// error: the probes only report numbers of correct work.
func runOps(w workload, clients, n int) ([]float64, error) {
	var (
		mu    sync.Mutex
		times []float64
		first error
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := &opCtx{client: c}
			for i := 0; i < n; i++ {
				oneOp(w, x, -1, false, nil)
				mu.Lock()
				if err := x.err; err != nil || x.wrong != nil {
					if first == nil {
						first = err
						if first == nil {
							first = x.wrong
						}
					}
				} else {
					times = append(times, float64(x.elapsed))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return times, first
}

// delta subtracts two registry snapshots.
func delta(before, after map[string]float64) func(string) float64 {
	return func(name string) float64 { return after[name] - before[name] }
}

// codecElems is the payload of the codec probes: 1 MiB of complex128.
const codecElems = 1 << 16

func probeCodecs(l ledger, seed uint64) {
	data := randomComplex(newRNG(seed, 21), codecElems)
	dst := make([]complex128, codecElems)
	buf := make([]byte, 0, 64+16*codecElems)
	gbs := func(ns float64) float64 { return 16 * codecElems / ns }

	frame := serve.Frame{Kind: serve.KindForward, Complex: data}
	l.set("serve.encode_gbs.frame", gbs(medianNs(probeReps, nil, func() { buf = must(serve.AppendFrame(buf[:0], frame)) })))
	l.set("serve.decode_gbs.frame", gbs(medianNs(probeReps, nil, func() { must(serve.DecodeFrame(buf)) })))

	sess := serve.SessionFrame{Op: serve.OpSessCols, ID: 1, VecLen: 1024, VecCount: codecElems / 1024, Data: data}
	l.set("serve.encode_gbs.session", gbs(medianNs(probeReps, nil, func() { buf = must(serve.AppendSessionFrame(buf[:0], sess)) })))
	l.set("serve.decode_gbs.session", gbs(medianNs(probeReps, nil, func() { must(serve.DecodeSessionFrameInto(buf, dst)) })))

	shard := serve.ShardFrame{Op: serve.OpColumns, VecLen: 1024, TotalN: largeN, Data: data}
	l.set("serve.encode_gbs.shard", gbs(medianNs(probeReps, nil, func() { buf = must(serve.AppendShardFrame(buf[:0], shard)) })))
	l.set("serve.decode_gbs.shard", gbs(medianNs(probeReps, nil, func() { must(serve.DecodeShardFrameInto(buf, dst)) })))
}

// serveProbeOps is the number of cycles per client in each phase of the
// daemon probe.
const serveProbeOps = 12

func probeServe(l ledger, seed uint64) error {
	w := &serveMixed{}
	defer w.close()
	if err := w.setup(seed); err != nil {
		return err
	}
	if err := w.prepare(); err != nil {
		return err
	}
	if _, err := runOps(w, serveClients, 2); err != nil { // plans, tuning, connections
		return err
	}

	// Both clients over TCP: the registry deltas of the workload's own
	// traffic shape.
	before := w.srv.Registry().Snapshot()
	if _, err := runOps(w, serveClients, serveProbeOps); err != nil {
		return err
	}
	d := delta(before, w.srv.Registry().Snapshot())
	l.set("serve.requests_total", d("fft_requests_total"))
	l.set("serve.responses_ok_total", d("fft_responses_ok_total"))
	l.set("serve.shed_total", d("fft_responses_shed_queue_total")+d("fft_responses_shed_drain_total"))
	l.set("serve.window_wait_share", (d("fft_request_seconds_sum")-d("fft_batch_seconds_sum"))/d("fft_request_seconds_sum"))
	l.set("serve.batch_occupancy_mean", d("fft_batch_occupancy_sum")/d("fft_batch_occupancy_count"))

	// One client over TCP against one client straight into the handler:
	// the difference is the HTTP stack and the loopback socket.
	tcp, err := runOps(w, 1, serveProbeOps)
	if err != nil {
		return err
	}
	w.direct = true
	handler, err := runOps(w, 1, serveProbeOps)
	if err != nil {
		return err
	}
	l.set("serve.handler_ms_p50", median(handler)/1e6)
	l.set("serve.http_ms_p50", (median(tcp)-median(handler))/1e6)
	return nil
}

// localOpNs is the median time of Transform + Inverse on a 2^20-point
// host plan, the in-core yardstick of the cluster and out-of-core
// probes.
func localOpNs(seed uint64, opts ...codeletfft.HostOption) float64 {
	p := must(codeletfft.NewHostPlan(largeN, opts...))
	data := randomComplex(newRNG(seed, 22), largeN)
	_ = p.Transform(data) // host plans never return an error
	_ = p.Inverse(data)
	return probeNs(true, nil, func() {
		_ = p.Transform(data)
		_ = p.Inverse(data)
	})
}

const clusterProbeOps = 5

func probeCluster(l ledger, seed uint64) error {
	opNs := func(nWorkers int, record bool) (float64, error) {
		w := &clusterLoop{nWorkers: nWorkers}
		defer w.close()
		if err := w.setup(seed); err != nil {
			return 0, err
		}
		if _, err := runOps(w, 1, 1); err != nil {
			return 0, err
		}
		before := w.cl.Snapshot()
		times, err := runOps(w, 1, clusterProbeOps)
		if err != nil {
			return 0, err
		}
		if record {
			after := w.cl.Snapshot()
			d := delta(before, after)
			transforms := d("dist_transforms_total")
			l.set("dist.bytes_per_elem", d("dist_resident_bytes_total")/d("dist_resident_elems_total"))
			l.set("dist.rpc_per_transform", d("dist_rpc_attempts_total")/transforms)
			l.set("dist.resident_ok_share", d("dist_resident_ok_total")/transforms)
			l.set("dist.retries_total", d("dist_retries_total"))
			l.set("dist.fallback_total", d("dist_resident_fallback_total"))
			l.set("dist.rpc_ms_p50", after["dist_rpc_seconds_p50"]*1e3)
			l.set("dist.transform_ms_p50", after["dist_transform_seconds_p50"]*1e3)
		}
		return median(times), nil
	}
	w4, err := opNs(clusterWorkers, true)
	if err != nil {
		return err
	}
	w1, err := opNs(1, false)
	if err != nil {
		return err
	}
	l.set("cluster.vs_local.2p20", w4/localOpNs(seed))
	l.set("cluster.w1_over_w4.2p20", w1/w4)
	return nil
}

const oocProbeOps = 4

func probeOOC(l ledger, seed uint64, outDir string) error {
	w := &oocSpill{outDir: outDir}
	defer w.close()
	if err := w.setup(seed); err != nil {
		return err
	}
	if err := w.prepare(); err != nil {
		return err
	}
	if _, err := runOps(w, 1, 1); err != nil {
		return err
	}
	before := w.plan.Snapshot()
	times, err := runOps(w, 1, oocProbeOps)
	if err != nil {
		return err
	}
	after := w.plan.Snapshot()
	d := delta(before, after)
	transforms := d("ooc_transforms_total")
	var stallNs float64
	for name := range after {
		if strings.HasPrefix(name, "ooc_prefetch_stall_ns_ch") {
			stallNs += d(name)
		}
	}
	const mib = 1 << 20
	l.set("ooc.phase_ms.cols", d("ooc_phase_cols_ns_total")/transforms/1e6)
	l.set("ooc.phase_ms.rows", d("ooc_phase_rows_ns_total")/transforms/1e6)
	l.set("ooc.prefetch_stall_ms", stallNs/transforms/1e6)
	l.set("ooc.pool_stall_ms", d("ooc_pool_stall_ns_total")/transforms/1e6)
	l.set("ooc.pool_stalls", d("ooc_pool_stalls_total")/transforms)
	phaseBytes := d("ooc_phase_cols_read_bytes_total") + d("ooc_phase_cols_write_bytes_total") +
		d("ooc_phase_rows_read_bytes_total") + d("ooc_phase_rows_write_bytes_total")
	l.set("ooc.bytes_per_phase_mib", phaseBytes/(2*transforms)/mib)
	l.set("ooc.segments_per_transform", d("ooc_segments_written_total")/transforms)
	l.set("ooc.corrupt_total", d("ooc_segments_corrupt_total"))
	l.set("ooc.spill_mib", float64(w.plan.SpillBytes())/mib)
	l.set("ooc.vs_incore.2p20", median(times)/localOpNs(seed, codeletfft.WithWorkers(1)))
	return nil
}

// runProbes fills the ledger with every layer probe.
func runProbes(l ledger, cfg runConfig) error {
	l2 := newCalib(calibL2Elems)
	l.set("calib.triad_gbs.l2", l2.bytesPerPass()/l2.run(probeBudget/4))
	mem := newCalib(calibMemElems)
	memGBs := mem.bytesPerPass() / mem.run(probeBudget/4)
	l.set("calib.triad_gbs.mem", memGBs)

	probeFFT(l, cfg.seed, memGBs)
	probeHost(l, cfg.seed)
	probeFacade(l, cfg.seed)
	probeCodecs(l, cfg.seed)
	if err := probeServe(l, cfg.seed); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := probeCluster(l, cfg.seed); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if err := probeOOC(l, cfg.seed, cfg.outDir); err != nil {
		return fmt.Errorf("ooc: %w", err)
	}
	return nil
}
