package dist

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Circuit-breaker and file-poll defaults: a worker that fails
// circuitThreshold calls with no completed session between them is
// taken out of rotation for circuitOpenBase, doubling up to
// circuitOpenMax while failures continue; the first completed session
// closes the circuit and resets the backoff.
const (
	defaultCircuitThreshold = 3
	defaultCircuitOpenBase  = 250 * time.Millisecond
	defaultCircuitOpenMax   = 5 * time.Second
	defaultFilePoll         = 2 * time.Second
)

// workerState is the per-worker health and circuit record. All fields
// are atomics so the dispatch hot path reads them without locks.
type workerState struct {
	addr string

	unhealthy atomic.Bool  // last health probe failed
	fails     atomic.Int32 // call/probe failures since the last completed session
	openUntil atomic.Int64 // circuit open until this unix-nano instant
	openFor   atomic.Int64 // current open duration (nanos), doubles per trip
}

// eligible reports whether the worker may receive traffic now: circuit
// closed (or its open window expired — the half-open probe state) and
// not marked unhealthy by the prober. A worker that was never probed is
// optimistically eligible.
func (w *workerState) eligible(now time.Time) bool {
	return now.UnixNano() >= w.openUntil.Load() && !w.unhealthy.Load()
}

// membership tracks the worker list and each worker's health: the
// static workers and then the membership file's, in that order, active
// health probing, and a per-worker circuit breaker fed by the
// coordinator's call outcomes. A session takes its workers in list
// order.
type membership struct {
	cfg Config

	mu      sync.RWMutex
	workers []*workerState // member order; setWorkers replaces the slice, never writes to it

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newMembership builds the worker list — cfg's static workers, then
// its membership file's if the file exists — and starts the file-poll
// and health-probe loops for whichever of the two cfg enables; Close
// stops them.
func newMembership(cfg Config) *membership {
	m := &membership{cfg: cfg, stop: make(chan struct{})}
	var file []string
	if cfg.MemberFile != "" {
		file, _ = readMemberFile(cfg.MemberFile) // a missing file adds nobody yet
	}
	m.setWorkers(file)
	if cfg.MemberFile != "" {
		m.wg.Add(1)
		go m.fileLoop()
	}
	if cfg.ProbeInterval > 0 && cfg.Client != nil {
		m.wg.Add(1)
		go m.probeLoop()
	}
	return m
}

// Close stops the background loops. Idempotent.
func (m *membership) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// list returns the worker list in member order. The caller must not
// write to it.
func (m *membership) list() []*workerState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.workers
}

// setWorkers replaces the worker list — the static workers, then
// file's, each address where it first appears — keeping the state of
// workers that remain.
func (m *membership) setWorkers(file []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	state := map[string]*workerState{}
	for _, w := range m.workers {
		state[w.addr] = w
	}
	var next []*workerState
	listed := map[string]bool{}
	for _, addr := range append(slices.Clip(m.cfg.Workers), file...) {
		if listed[addr] {
			continue
		}
		listed[addr] = true
		w := state[addr]
		if w == nil {
			w = &workerState{addr: addr}
		}
		next = append(next, w)
	}
	m.workers = next
}

// EligibleCount reports how many workers may receive traffic now.
func (m *membership) EligibleCount() int {
	now, n := time.Now(), 0
	for _, w := range m.list() {
		if w.eligible(now) {
			n++
		}
	}
	return n
}

// Pick returns the first n eligible workers in member order, skipping
// excluded addresses.
func (m *membership) Pick(n int, excluded map[string]bool) []string {
	now := time.Now()
	var out []string
	for _, w := range m.list() {
		if len(out) == n {
			break
		}
		if !excluded[w.addr] && w.eligible(now) {
			out = append(out, w.addr)
		}
	}
	return out
}

// ReportSuccess records a session the worker completed: the circuit
// closes and the backoff resets.
func (m *membership) ReportSuccess(addr string) {
	if w := m.worker(addr); w != nil {
		w.fails.Store(0)
		w.openFor.Store(0)
		w.openUntil.Store(0)
	}
}

// ReportFailure records a failed call; at circuitThreshold consecutive
// failures the worker's circuit opens for the current backoff window,
// doubling (up to circuitOpenMax) on every subsequent failure — so a
// worker in the half-open state that fails its probe trip re-opens
// immediately with a longer window.
func (m *membership) ReportFailure(addr string) {
	w := m.worker(addr)
	if w == nil {
		return
	}
	if int(w.fails.Add(1)) < m.cfg.circuitThreshold {
		return
	}
	open := w.openFor.Load()
	if open == 0 {
		open = int64(m.cfg.circuitOpenBase)
	} else if open < int64(m.cfg.circuitOpenMax) {
		open = min(2*open, int64(m.cfg.circuitOpenMax))
	}
	w.openFor.Store(open)
	w.openUntil.Store(time.Now().UnixNano() + open)
}

func (m *membership) worker(addr string) *workerState {
	for _, w := range m.list() {
		if w.addr == addr {
			return w
		}
	}
	return nil
}

func (m *membership) probeLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		for _, w := range m.list() {
			ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeInterval)
			err := health(ctx, m.cfg.Client, w.addr)
			cancel()
			if err != nil {
				w.unhealthy.Store(true)
				m.ReportFailure(w.addr)
			} else {
				w.unhealthy.Store(false)
			}
		}
	}
}

// health probes the worker's /healthz; nil means the worker is
// accepting traffic.
func health(ctx context.Context, client *http.Client, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: worker %s health: status %d", addr, resp.StatusCode)
	}
	return nil
}

func (m *membership) fileLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.filePoll)
	defer tick.Stop()
	var lastMod time.Time
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		st, err := os.Stat(m.cfg.MemberFile)
		if err != nil {
			continue // missing file keeps the current set
		}
		if !st.ModTime().After(lastMod) {
			continue
		}
		lastMod = st.ModTime()
		addrs, err := readMemberFile(m.cfg.MemberFile)
		if err != nil {
			continue
		}
		m.setWorkers(addrs)
	}
}

// readMemberFile parses one worker address per line; '#' starts a
// comment and blank lines are skipped.
func readMemberFile(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var addrs []string
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			addrs = append(addrs, line)
		}
	}
	return addrs, nil
}
