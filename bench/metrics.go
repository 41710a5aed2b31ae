package main

import "math"

// metricDef names one metric of the contract in BENCHMARK.json. bound
// is the share of the parent's median by which an end-to-end metric may
// worsen; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see. The timing
// metric is op_rel_p50, op time in units of the interleaved calibration
// triad: on a shared box raw wall time drifts with the neighbours (the
// same code read 36 to 52 ms on batch_resident within a quarter of an
// hour), so raw.op_ms_p50 is printed beside it and kept in the traced
// ledger, not gated.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_rel_p50", "xcalib", lower, 0.25},
	{"peak_rss_mib", "MiB", lower, 0.15},
	{"slo_ok_share", "ratio", higher, 0.05},
}

// perLayer is the traced ledger: one line per layer metric. The probes
// behind most of them are the same whatever workload the traced run
// names; share.*, raw.*, trace.*, calib.spread_p90_p10 and
// facade.alloc_bytes_per_op describe that workload.
var perLayer = []metricDef{
	// internal/fft, serial.
	{"fft.ns_per_bfly.radix2", "ns", lower, 0},
	{"fft.ns_per_bfly.radix4", "ns", lower, 0},
	{"fft.ns_per_bfly.splitradix", "ns", lower, 0},
	{"fft.ns_per_bfly.soa2", "ns", lower, 0},
	{"fft.ns_per_bfly.soa4", "ns", lower, 0},
	{"fft.ns_per_pt.mixed_3072", "ns", lower, 0},
	{"fft.ns_per_pt.mixed_1000", "ns", lower, 0},
	{"fft.ns_per_pt.bluestein_1009", "ns", lower, 0},
	{"fft.ns_per_pt.real_4096", "ns", lower, 0},
	{"fft.ns_per_pt.soa4_2p20", "ns", lower, 0},
	{"fft.ns_per_pt.radix4_2p20", "ns", lower, 0},
	{"fft.gflops.soa4_2p20", "GFLOPS", higher, 0},
	{"fft.pack_unpack_share.2p20", "ratio", lower, 0},
	{"fft.fourstep_ns_per_pt.2p20", "ns", lower, 0},
	{"fft.ns_per_pt.soa4_2p22", "ns", lower, 0},
	{"fft.ns_per_pt.mixed_3x2p18", "ns", lower, 0},
	{"fft.ns_per_pt.mixed_1e6", "ns", lower, 0},
	{"fft.ns_per_pt.bluestein_262147", "ns", lower, 0},
	{"fft.plan_build_ms.pow2_2p20", "ms", lower, 0},
	{"fft.plan_build_ms.mixed_1e6", "ms", lower, 0},
	{"fft.plan_build_ms.bluestein_262147", "ms", lower, 0},
	{"fft.err_ulp.pow2", "eps", lower, 0},
	{"fft.err_ulp.mixed", "eps", lower, 0},
	{"fft.err_ulp.bluestein", "eps", lower, 0},
	{"fft.err_ulp.real", "eps", lower, 0},
	{"fft.roofline_share.soa4_2p20", "ratio", higher, 0},

	// internal/host.
	{"host.par_speedup_w2.2p14", "ratio", higher, 0},
	{"host.par_speedup_w2.2p16", "ratio", higher, 0},
	{"host.par_speedup_w2.2p20", "ratio", higher, 0},
	{"host.par_speedup_w2.mixed_3x2p18", "ratio", higher, 0},
	{"host.batch_vs_loop.n4096", "ratio", higher, 0},
	{"host.pass_share.pack", "ratio", lower, 0},
	{"host.pass_share.stages", "ratio", lower, 0},
	{"host.pass_share.unpack", "ratio", lower, 0},
	{"host.pass_share.conj_scale", "ratio", lower, 0},
	{"host.passes_per_transform.2p20", "count", lower, 0},
	{"host.bytes_computed_per_pt.2p20", "B", lower, 0},
	{"host.allocs_per_op.batch", "count", lower, 0},

	// internal/tune, internal/cache and the facade.
	{"tune.resolve_ms.n4096", "ms", lower, 0},
	{"tune.resolve_ms.2p20", "ms", lower, 0},
	{"tune.hit_ns", "ns", lower, 0},
	{"cache.hit_ns", "ns", lower, 0},
	{"cache.miss_ns", "ns", lower, 0},
	{"facade.new_plan_ms.n4096", "ms", lower, 0},
	{"facade.cached_plan_hit_ns", "ns", lower, 0},
	{"facade.overhead_share.n1024", "ratio", lower, 0},
	{"facade.plan_cache_hit_share", "ratio", higher, 0},
	{"facade.real_vs_complex.n4096", "ratio", higher, 0},
	{"facade.conv_mpts_per_s.k255", "Mpts/s", higher, 0},
	{"facade.stft_mpts_per_s.f1024", "Mpts/s", higher, 0},
	{"facade.alloc_bytes_per_op", "B", lower, 0},

	// internal/serve.
	{"serve.encode_gbs.frame", "GB/s", higher, 0},
	{"serve.decode_gbs.frame", "GB/s", higher, 0},
	{"serve.encode_gbs.session", "GB/s", higher, 0},
	{"serve.decode_gbs.session", "GB/s", higher, 0},
	{"serve.encode_gbs.shard", "GB/s", higher, 0},
	{"serve.decode_gbs.shard", "GB/s", higher, 0},
	{"serve.handler_ms_p50", "ms", lower, 0},
	{"serve.http_ms_p50", "ms", lower, 0},
	{"serve.window_wait_share", "ratio", lower, 0},
	{"serve.batch_occupancy_mean", "count", higher, 0},
	{"serve.requests_total", "count", higher, 0},
	{"serve.responses_ok_total", "count", higher, 0},
	{"serve.shed_total", "count", lower, 0},

	// internal/dist and the cluster facade.
	{"dist.bytes_per_elem", "B", lower, 0},
	{"dist.rpc_per_transform", "count", lower, 0},
	{"dist.resident_ok_share", "ratio", higher, 0},
	{"dist.retries_total", "count", lower, 0},
	{"dist.fallback_total", "count", lower, 0},
	{"dist.rpc_ms_p50", "ms", lower, 0},
	{"dist.transform_ms_p50", "ms", lower, 0},
	{"cluster.vs_local.2p20", "ratio", lower, 0},
	{"cluster.w1_over_w4.2p20", "ratio", higher, 0},

	// internal/ooc.
	{"ooc.phase_ms.cols", "ms", lower, 0},
	{"ooc.phase_ms.rows", "ms", lower, 0},
	{"ooc.prefetch_stall_ms", "ms", lower, 0},
	{"ooc.pool_stall_ms", "ms", lower, 0},
	{"ooc.vs_incore.2p20", "ratio", lower, 0},
	{"ooc.bytes_per_phase_mib", "MiB", lower, 0},
	{"ooc.segments_per_transform", "count", lower, 0},
	{"ooc.pool_stalls", "count", lower, 0},
	{"ooc.corrupt_total", "count", lower, 0},
	{"ooc.spill_mib", "MiB", lower, 0},

	// The machine during the run, the traced workload's raw numbers,
	// and the tracer's own cost.
	{"calib.triad_gbs.l2", "GB/s", higher, 0},
	{"calib.triad_gbs.mem", "GB/s", higher, 0},
	{"calib.spread_p90_p10", "ratio", lower, 0},
	{"raw.op_ms_p50", "ms", lower, 0},
	{"raw.op_ms_p95", "ms", lower, 0},
	{"raw.mpts_per_s", "Mpts/s", higher, 0},
	{"raw.cpu_ms_per_op", "ms", lower, 0},
	{"raw.ops", "count", higher, 0},
	{"raw.rounds", "count", higher, 0},
	{"trace.overhead_share", "ratio", lower, 0},
	{"trace.spans_per_op", "count", lower, 0},

	// Self time of each span category over the traced workload's op
	// clock; share.other is the loop between calls.
	{"share.plan_lookup", "ratio", lower, 0},
	{"share.pow2", "ratio", lower, 0},
	{"share.mixed", "ratio", lower, 0},
	{"share.bluestein", "ratio", lower, 0},
	{"share.real", "ratio", lower, 0},
	{"share.conv", "ratio", lower, 0},
	{"share.stft", "ratio", lower, 0},
	{"share.encode", "ratio", lower, 0},
	{"share.http", "ratio", lower, 0},
	{"share.decode", "ratio", lower, 0},
	{"share.cluster", "ratio", lower, 0},
	{"share.ooc", "ratio", lower, 0},
	{"share.other", "ratio", lower, 0},
}

// ledger collects metric values by name.
type ledger map[string]float64

// set records a value; a NaN or infinity (a probe that measured
// nothing) is stored as 0 so the result line stays valid JSON.
func (l ledger) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l[name] = v
}
