package dist

import (
	"strings"
	"sync"

	"codeletfft/internal/metrics"
)

// distMetrics names the coordinator's instruments once. The counters
// are defined so fault-injection tests can assert exact consistency:
// attempts counts every session RPC (open, cols, rows — three per worker
// per healthy transform — and an abandoned attempt's closes); errors
// every RPC whose failure was held against an address (cancelled
// siblings and 429s are not); retries every abandoned session attempt
// that was followed by another; degraded every transform that ran on the
// coordinator's host engine, and residentFall those of them that tried a
// session first.
type distMetrics struct {
	reg *metrics.Registry

	transforms *metrics.Counter // dist_transforms_total
	attempts   *metrics.Counter // dist_rpc_attempts_total
	errors     *metrics.Counter // dist_rpc_errors_total
	retries    *metrics.Counter // dist_retries_total
	degraded   *metrics.Counter // dist_degraded_total

	// Wire accounting. bytesMoved counts every coordinator↔worker byte,
	// abandoned attempts included; the resident pair counts completed
	// attempts only, so residentBytes / residentElems is the
	// communication-avoidance invariant CI gates on:
	// bytes ≤ 2·16·elems (+ header noise).
	bytesMoved    *metrics.Counter // dist_bytes_moved_total
	residentBytes *metrics.Counter // dist_resident_bytes_total
	residentElems *metrics.Counter // dist_resident_elems_total
	residentOK    *metrics.Counter // dist_resident_ok_total
	residentFall  *metrics.Counter // dist_resident_fallback_total
	sessions      *metrics.Counter // dist_sessions_total

	rpcSec       *metrics.Histogram // dist_rpc_seconds
	transformSec *metrics.Histogram // dist_transform_seconds
	transformB   *metrics.Histogram // dist_transform_bytes

	mu        sync.Mutex
	workerSec map[string]*metrics.Histogram
	workerErr map[string]*metrics.Counter
}

func newDistMetrics(r *metrics.Registry) *distMetrics {
	latency := metrics.ExpBuckets(1e-5, 2, 22) // 10µs … ~40s
	return &distMetrics{
		reg:        r,
		transforms: r.Counter("dist_transforms_total"),
		attempts:   r.Counter("dist_rpc_attempts_total"),
		errors:     r.Counter("dist_rpc_errors_total"),
		retries:    r.Counter("dist_retries_total"),
		degraded:   r.Counter("dist_degraded_total"),

		bytesMoved:    r.Counter("dist_bytes_moved_total"),
		residentBytes: r.Counter("dist_resident_bytes_total"),
		residentElems: r.Counter("dist_resident_elems_total"),
		residentOK:    r.Counter("dist_resident_ok_total"),
		residentFall:  r.Counter("dist_resident_fallback_total"),
		sessions:      r.Counter("dist_sessions_total"),

		rpcSec:       r.Histogram("dist_rpc_seconds", latency),
		transformSec: r.Histogram("dist_transform_seconds", latency),
		transformB:   r.Histogram("dist_transform_bytes", metrics.ExpBuckets(1024, 4, 16)), // 1KiB … ~4GiB
		workerSec:    map[string]*metrics.Histogram{},
		workerErr:    map[string]*metrics.Counter{},
	}
}

// sanitizeAddr turns a worker address into a metric-name suffix:
// anything outside [a-zA-Z0-9_] becomes '_'.
func sanitizeAddr(addr string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, addr)
}

// perWorkerSec returns the worker's RPC latency histogram, creating
// dist_worker_<addr>_rpc_seconds on first use.
func (m *distMetrics) perWorkerSec(addr string) *metrics.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.workerSec[addr]
	if !ok {
		h = m.reg.Histogram("dist_worker_"+sanitizeAddr(addr)+"_rpc_seconds", metrics.ExpBuckets(1e-5, 2, 22))
		m.workerSec[addr] = h
	}
	return h
}

// perWorkerErr returns the worker's error counter, creating
// dist_worker_<addr>_errors_total on first use.
func (m *distMetrics) perWorkerErr(addr string) *metrics.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.workerErr[addr]
	if !ok {
		c = m.reg.Counter("dist_worker_" + sanitizeAddr(addr) + "_errors_total")
		m.workerErr[addr] = c
	}
	return c
}
