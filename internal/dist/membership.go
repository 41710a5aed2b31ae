package dist

import (
	"context"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Circuit-breaker defaults: a worker that fails CircuitThreshold
// consecutive calls is taken out of rotation for OpenBase, doubling up
// to OpenMax while failures continue; the first success closes the
// circuit and resets the backoff.
const (
	DefaultCircuitThreshold = 3
	DefaultCircuitOpenBase  = 250 * time.Millisecond
	DefaultCircuitOpenMax   = 5 * time.Second
)

// workerState is the per-worker health and circuit record. All fields
// are atomics so the dispatch hot path reads them without locks.
type workerState struct {
	addr string

	unhealthy atomic.Bool  // last health probe failed
	fails     atomic.Int32 // consecutive call/probe failures
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

// MemberConfig tunes a Membership.
type MemberConfig struct {
	// Transport performs health probes (nil disables probing even if
	// ProbeInterval is set).
	Transport Transport
	// Static is the initial worker set.
	Static []string
	// File, when non-empty, is a membership file polled every
	// FilePollInterval: one worker address per line, '#' comments and
	// blank lines ignored. The file replaces the whole worker set, so
	// it can both add and remove workers at runtime.
	File             string
	FilePollInterval time.Duration
	// ProbeInterval is how often every worker's health endpoint is
	// probed; 0 disables active probing (circuits still react to call
	// failures reported by the coordinator).
	ProbeInterval time.Duration

	// Circuit-breaker knobs; zero values take the defaults above.
	CircuitThreshold  int
	OpenBase, OpenMax time.Duration
}

// Membership tracks the worker set and each worker's health: static
// and file-sourced members, active health probing, and a per-worker
// circuit breaker fed by the coordinator's call outcomes. Placement is
// by consistent hashing so transform shapes keep their home workers
// across membership churn.
type Membership struct {
	cfg MemberConfig

	mu      sync.RWMutex
	workers map[string]*workerState
	ring    *ring

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewMembership builds the membership with the static set (plus the
// file contents, if the file exists) and applies config defaults.
// Call Start to begin probing and file polling, Close to stop.
func NewMembership(cfg MemberConfig) *Membership {
	if cfg.CircuitThreshold <= 0 {
		cfg.CircuitThreshold = DefaultCircuitThreshold
	}
	if cfg.OpenBase <= 0 {
		cfg.OpenBase = DefaultCircuitOpenBase
	}
	if cfg.OpenMax <= 0 {
		cfg.OpenMax = DefaultCircuitOpenMax
	}
	if cfg.FilePollInterval <= 0 {
		cfg.FilePollInterval = 2 * time.Second
	}
	m := &Membership{cfg: cfg, workers: map[string]*workerState{}, stop: make(chan struct{})}
	m.setWorkers(cfg.Static)
	if cfg.File != "" {
		if addrs, err := readMemberFile(cfg.File); err == nil {
			m.setWorkers(mergeAddrs(cfg.Static, addrs))
		}
	}
	return m
}

// Start launches the health-probe and membership-file poll loops for
// whichever of the two the config enables.
func (m *Membership) Start() {
	if m.cfg.ProbeInterval > 0 && m.cfg.Transport != nil {
		m.wg.Add(1)
		go m.probeLoop()
	}
	if m.cfg.File != "" {
		m.wg.Add(1)
		go m.fileLoop()
	}
}

// Close stops the background loops. Idempotent.
func (m *Membership) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// setWorkers replaces the worker set, preserving the state of workers
// that remain and rebuilding the placement ring.
func (m *Membership) setWorkers(addrs []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := make(map[string]*workerState, len(addrs))
	for _, addr := range addrs {
		if w, ok := m.workers[addr]; ok {
			next[addr] = w
		} else {
			next[addr] = &workerState{addr: addr}
		}
	}
	m.workers = next
	m.ring = buildRing(addrs)
}

// Addrs returns every member address (eligible or not), sorted by the
// ring's notion of order not guaranteed — callers sort if they care.
func (m *Membership) Addrs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.workers))
	for addr := range m.workers {
		out = append(out, addr)
	}
	return out
}

// EligibleCount reports how many workers may receive traffic now.
func (m *Membership) EligibleCount() int {
	now := time.Now()
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, w := range m.workers {
		if w.eligible(now) {
			n++
		}
	}
	return n
}

// Successors returns up to max eligible workers for the placement key
// in ring order, skipping excluded addresses.
func (m *Membership) Successors(key uint64, max int, excluded map[string]bool) []string {
	now := time.Now()
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.ring == nil {
		return nil
	}
	return m.ring.successors(key, max, func(addr string) bool {
		if excluded[addr] {
			return false
		}
		w, ok := m.workers[addr]
		return ok && w.eligible(now)
	})
}

// ReportSuccess records a successful call: the circuit closes and the
// backoff resets.
func (m *Membership) ReportSuccess(addr string) {
	if w := m.worker(addr); w != nil {
		w.fails.Store(0)
		w.openFor.Store(0)
		w.openUntil.Store(0)
	}
}

// ReportFailure records a failed call; at CircuitThreshold consecutive
// failures the worker's circuit opens for the current backoff window,
// doubling (up to OpenMax) on every subsequent failure — so a worker in
// the half-open state that fails its probe trip re-opens immediately
// with a longer window.
func (m *Membership) ReportFailure(addr string) {
	w := m.worker(addr)
	if w == nil {
		return
	}
	if int(w.fails.Add(1)) < m.cfg.CircuitThreshold {
		return
	}
	open := w.openFor.Load()
	if open == 0 {
		open = int64(m.cfg.OpenBase)
	} else if open < int64(m.cfg.OpenMax) {
		open = min(2*open, int64(m.cfg.OpenMax))
	}
	w.openFor.Store(open)
	w.openUntil.Store(time.Now().UnixNano() + open)
}

func (m *Membership) worker(addr string) *workerState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.workers[addr]
}

func (m *Membership) probeLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		m.mu.RLock()
		ws := make([]*workerState, 0, len(m.workers))
		for _, w := range m.workers {
			ws = append(ws, w)
		}
		m.mu.RUnlock()
		for _, w := range ws {
			ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeInterval)
			err := m.cfg.Transport.Health(ctx, w.addr)
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

func (m *Membership) fileLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.FilePollInterval)
	defer tick.Stop()
	var lastMod time.Time
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		st, err := os.Stat(m.cfg.File)
		if err != nil {
			continue // missing file keeps the current set
		}
		if !st.ModTime().After(lastMod) {
			continue
		}
		lastMod = st.ModTime()
		addrs, err := readMemberFile(m.cfg.File)
		if err != nil {
			continue
		}
		m.setWorkers(mergeAddrs(m.cfg.Static, addrs))
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

// mergeAddrs unions the static set with the file set, preserving first
// appearance order and dropping duplicates.
func mergeAddrs(static, file []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range append(append([]string(nil), static...), file...) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
