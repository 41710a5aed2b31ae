package ooc

import (
	"fmt"

	"codeletfft/internal/metrics"
)

// The channel model a plan's meters use: a file offset's channel is
// (offset/ioStripe) mod ioChannels.
const (
	ioChannels       = 4
	ioStripe   int64 = 1 << 20
)

// meters holds the plan's pre-resolved instruments, so the I/O hot
// paths do a map-free atomic add per operation. The paper's thesis —
// imbalance, not throughput, is what limits FFTs — is what the
// per-channel split exists to show: every byte the plan moves is
// attributed to a modelled I/O channel by its file offset
// (channel = offset/stripe mod channels, a RAID-stripe/multi-queue-SSD
// model), and every time the compute loop outruns the prefetcher the
// stall is charged to the channel that eventually delivered the tile.
// A byte's channel is a function of its offset, so the split measures
// the layout, not the fetch order: a balanced layout shows near-equal
// per-channel bytes and few stalls; a skewed one shows exactly where
// the I/O bottleneck sits.
type meters struct {
	channels int
	stripe   int64

	// Per-channel prefetch accounting.
	readBytesCh  []*metrics.Counter // ooc_prefetch_read_bytes_ch<i>_total
	writeBytesCh []*metrics.Counter // ooc_prefetch_write_bytes_ch<i>_total
	stallsCh     []*metrics.Counter // ooc_prefetch_stalls_ch<i>_total
	stallNsCh    []*metrics.Counter // ooc_prefetch_stall_ns_ch<i>_total

	// Prefetcher-side stalls: the reader wanted a tile buffer but
	// compute/writeback still owned them all.
	poolStalls  *metrics.Counter
	poolStallNs *metrics.Counter

	// Phase totals.
	colsReadBytes  *metrics.Counter
	colsWriteBytes *metrics.Counter
	colsNs         *metrics.Counter
	rowsReadBytes  *metrics.Counter
	rowsWriteBytes *metrics.Counter
	rowsNs         *metrics.Counter

	segsWritten *metrics.Counter
	segsRead    *metrics.Counter
	corrupt     *metrics.Counter
	transforms  *metrics.Counter
}

func newMeters(reg *metrics.Registry, channels int, stripe int64) *meters {
	m := &meters{
		channels:       channels,
		stripe:         stripe,
		poolStalls:     reg.Counter("ooc_pool_stalls_total"),
		poolStallNs:    reg.Counter("ooc_pool_stall_ns_total"),
		colsReadBytes:  reg.Counter("ooc_phase_cols_read_bytes_total"),
		colsWriteBytes: reg.Counter("ooc_phase_cols_write_bytes_total"),
		colsNs:         reg.Counter("ooc_phase_cols_ns_total"),
		rowsReadBytes:  reg.Counter("ooc_phase_rows_read_bytes_total"),
		rowsWriteBytes: reg.Counter("ooc_phase_rows_write_bytes_total"),
		rowsNs:         reg.Counter("ooc_phase_rows_ns_total"),
		segsWritten:    reg.Counter("ooc_segments_written_total"),
		segsRead:       reg.Counter("ooc_segments_read_total"),
		corrupt:        reg.Counter("ooc_segments_corrupt_total"),
		transforms:     reg.Counter("ooc_transforms_total"),
	}
	for i := 0; i < channels; i++ {
		m.readBytesCh = append(m.readBytesCh, reg.Counter(fmt.Sprintf("ooc_prefetch_read_bytes_ch%d_total", i)))
		m.writeBytesCh = append(m.writeBytesCh, reg.Counter(fmt.Sprintf("ooc_prefetch_write_bytes_ch%d_total", i)))
		m.stallsCh = append(m.stallsCh, reg.Counter(fmt.Sprintf("ooc_prefetch_stalls_ch%d_total", i)))
		m.stallNsCh = append(m.stallNsCh, reg.Counter(fmt.Sprintf("ooc_prefetch_stall_ns_ch%d_total", i)))
	}
	return m
}

// chanOf maps a byte offset to its modelled I/O channel.
func (m *meters) chanOf(byteOff int64) int {
	c := int(byteOff/m.stripe) % m.channels
	if c < 0 {
		c += m.channels
	}
	return c
}

// onRead/onWrite account one positioned I/O against its channel and
// the active phase's byte counter — the per-segment path; a staging
// goroutine's many small vector I/Os go through a chanAcc instead.
func (m *meters) onRead(byteOff, n int64, phase *metrics.Counter) {
	phase.Add(n)
	m.readBytesCh[m.chanOf(byteOff)].Add(n)
}

func (m *meters) onWrite(byteOff, n int64, phase *metrics.Counter) {
	phase.Add(n)
	m.writeBytesCh[m.chanOf(byteOff)].Add(n)
}

// chanAcc accounts one staging goroutine's vector I/Os, each attributed
// — all its bytes — to the channel of its first byte, exactly as
// onRead/onWrite would one by one. A move touches vectors a fixed stride
// apart, so consecutive ones mostly fall in one stripe: the accumulator
// keeps the byte range of the stripe it is in, sums privately while the
// offsets stay inside it, and pays the divisions and the shared atomic
// adds only when they leave it (and at flush).
type chanAcc struct {
	m      *meters
	perCh  []*metrics.Counter // readBytesCh or writeBytesCh
	phase  *metrics.Counter
	lo, hi int64 // byte range of the current stripe; empty before the first add
	ch     int   // its channel
	n      int64 // bytes pending for ch
}

func (m *meters) reads(phase *metrics.Counter) chanAcc {
	return chanAcc{m: m, perCh: m.readBytesCh, phase: phase}
}

func (m *meters) writes(phase *metrics.Counter) chanAcc {
	return chanAcc{m: m, perCh: m.writeBytesCh, phase: phase}
}

// add accounts n bytes moved at byteOff.
func (a *chanAcc) add(byteOff, n int64) {
	if byteOff < a.lo || byteOff >= a.hi {
		a.flush()
		a.lo = byteOff - byteOff%a.m.stripe
		a.hi = a.lo + a.m.stripe
		a.ch = a.m.chanOf(byteOff)
	}
	a.n += n
}

// flush publishes the pending bytes; the accumulator stays usable.
func (a *chanAcc) flush() {
	if a.n != 0 {
		a.phase.Add(a.n)
		a.perCh[a.ch].Add(a.n)
		a.n = 0
	}
}

// onStall charges a compute-side wait to the channel of the strip that
// eventually arrived (identified by the byte offset of its first
// fetch).
func (m *meters) onStall(byteOff, ns int64) {
	c := m.chanOf(byteOff)
	m.stallsCh[c].Inc()
	m.stallNsCh[c].Add(ns)
}
