// The daemon's one request pipeline. Every endpoint that reaches the
// engine goes through the same three steps, each written once:
//
//	admit   drain → deadline → queue token (503 / 400 / 429)
//	submit  queue under the request's shape, wait for the answer or the
//	        deadline; classify turns a failure into its status and counter
//	run     resolve the shape's plan through the facade's cache, one
//	        batched engine call; a length error comes back as a value
//
// Batches form by a rule that needs no clock — the source paper's firing
// rule (work fires when its inputs are ready and a unit is free) rather
// than a barrier in time: a shape with no batch running dispatches at
// once; while one runs, arrivals queue behind it and the finishing
// executor takes up to MaxBatch of them, in arrival order, as the next
// batch; a shape with nothing running and nothing queued has no entry in
// the table. Coalescing therefore happens exactly when the engine is the
// bottleneck, and an idle daemon adds no latency.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"codeletfft"
)

// batchKey identifies a coalescible shape: requests batch together only
// when both the transform length and the kind match.
type batchKey struct {
	n    int
	kind Kind
}

// pending is one unit of work on its way to, waiting for, or inside a
// batch.
//
// Buffer ownership: holders counts who may still touch p's buffers —
// the handler from the moment it lays them out, the executor from
// submit until it has answered. Each lets go once (drop), and whoever
// lets go last returns the pooled ones to the pool: one atomic
// hand-off. So a request that was never admitted gives its buffers back
// when its handler returns; a served one once its answer is written;
// and one whose deadline fired while its batch was running when the
// executor is done with it — not under the executor's feet, and not
// left to the collector with the pool's count of it drifting.
type pending struct {
	ctx  context.Context
	done chan error // buffered; receives exactly one result
	// rows are the complex buffers transformed in place: one per request
	// (the half spectrum for the real kinds), many for a spectrogram
	// chunk.
	rows [][]complex128
	// real is the real kinds' sample buffer: KindReal reads it,
	// KindRealInverse fills it.
	real []float64
	// pooled are the pool buffers behind rows and real, if any.
	pooled  [2]*[]complex128
	holders atomic.Int32
	// ownsToken makes the executor release one admission token once it
	// has answered, so a request whose client stopped waiting still
	// counts against the queue until its buffers are done with. A
	// stream's chunks leave it false: they ride the token their handler
	// holds for the whole stream.
	ownsToken bool
}

// drop lets go of p's buffers on behalf of one holder.
func (p *pending) drop() {
	if p.holders.Add(-1) == 0 {
		ReleaseComplex(p.pooled[0])
		ReleaseComplex(p.pooled[1])
	}
}

// admit is the one door into the queue. On success the caller owns one
// admission token (hand it to a pending via ownsToken, or release it on
// return) and a context carrying the request's deadline; otherwise the
// refusal has been counted and written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	if s.draining.Load() {
		s.m.shedDrain.Inc()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return nil, nil, false
	}
	d, err := s.deadlineFor(r)
	if err != nil {
		s.reject(w, err)
		return nil, nil, false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.m.shedQueue.Inc()
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, true
}

// release returns one admission token.
func (s *Server) release() { <-s.sem }

// submit queues p under key and waits for the executor's answer or the
// request's deadline, whichever comes first. After a deadline the
// executor still answers p.done (buffered) and skips the work.
func (s *Server) submit(ctx context.Context, key batchKey, p *pending) error {
	p.ctx = ctx
	p.done = make(chan error, 1)
	p.holders.Add(1) // the executor's; answer drops it
	s.mu.Lock()
	queue, running := s.shapes[key]
	if running {
		s.shapes[key] = append(queue, p)
	} else {
		s.shapes[key] = nil
	}
	s.mu.Unlock()
	if !running {
		// The shape's executor: it owns the queue behind its batch and
		// blocks on the handlers it answers, so it is a goroutine of
		// its own; the batch's arithmetic it hands to the engine is
		// what runs on the process's worker pool.
		go s.execute(key, []*pending{p})
	}
	select {
	case err := <-p.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// execute is a shape's executor: it answers the batch it was started
// with, then keeps taking what queued up behind it until nothing has.
func (s *Server) execute(key batchKey, reqs []*pending) {
	for len(reqs) > 0 {
		s.answer(key, reqs)
		reqs = s.next(key)
	}
}

// next claims up to MaxBatch queued requests of a shape as its next
// batch, or retires the shape's entry when nothing queued.
func (s *Server) next(key batchKey) []*pending {
	s.mu.Lock()
	defer s.mu.Unlock()
	queue := s.shapes[key]
	if len(queue) == 0 {
		delete(s.shapes, key)
		return nil
	}
	k := min(len(queue), s.cfg.MaxBatch)
	s.shapes[key] = queue[k:]
	return queue[:k:k]
}

// answer runs one batch: requests that expired while queued are dropped,
// the live ones go through run, everyone gets a result, and only then
// are the admission tokens released — so an empty queue (Drain's
// completion test) implies every admitted request was answered.
func (s *Server) answer(key batchKey, reqs []*pending) {
	live := make([]*pending, 0, len(reqs))
	rows := make([][]complex128, 0, len(reqs))
	var reals [][]float64
	for _, p := range reqs {
		if p.ctx.Err() != nil {
			s.m.expired.Inc()
			p.done <- context.DeadlineExceeded
			p.drop()
			continue
		}
		live = append(live, p)
		rows = append(rows, p.rows...)
		if p.real != nil {
			reals = append(reals, p.real)
		}
	}
	if len(live) > 0 {
		start := time.Now()
		err := s.run(key, rows, reals)
		s.m.batches.Inc()
		s.m.occupancy.Observe(float64(len(live)))
		s.m.batchSec.Observe(time.Since(start).Seconds())
		for _, p := range live {
			p.done <- err
			p.drop()
		}
	}
	for _, p := range reqs {
		if p.ownsToken {
			s.release()
		}
	}
}

// run is the daemon's one entry into the engine: it resolves key's plan
// through the facade's process-wide cache (a plan is a view of the
// shared core and the shared worker pool, so a hit costs one lookup per
// batch and holds nothing) and applies key's transform to every row in
// a single batched call (per-row calls for the real kinds, whose sample
// buffers are the parallel reals), behind isolate. A malformed row is the
// plan's returned length error, which classify answers with 400.
func (s *Server) run(key batchKey, rows [][]complex128, reals [][]float64) error {
	return s.isolate(key, rows, func() (err error) {
		switch key.kind {
		case KindForward, KindInverse:
			var p *codeletfft.HostPlan
			if p, err = codeletfft.CachedHostPlan(key.n, s.planOpts...); err != nil {
				return err
			}
			if key.kind == KindForward {
				return p.TransformBatch(rows)
			}
			return p.InverseBatch(rows)
		case KindReal, KindRealInverse:
			var p *codeletfft.RealPlan
			if p, err = codeletfft.CachedRealPlan(key.n, s.planOpts...); err != nil {
				return err
			}
			for i := 0; i < len(rows) && err == nil; i++ {
				if key.kind == KindReal {
					err = p.Transform(rows[i], reals[i])
				} else {
					err = p.Inverse(reals[i], rows[i])
				}
			}
		}
		return err
	})
}

// isolate is the daemon's boundary for real bugs, around every batch and
// every session step: a panic on the calling goroutine inside work
// becomes a 500 and the server keeps serving. Bad input never gets here
// as a panic — every plan returns it — and a panic on a pool worker is
// beyond any recover here. key and rows are what the test seam execHook
// sees.
func (s *Server) isolate(key batchKey, rows [][]complex128, work func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Inc()
			err = fmt.Errorf("transform panic: %v", r)
		}
	}()
	if s.execHook != nil {
		s.execHook(key, rows)
	}
	return work()
}

// classify counts a failed request and names its status: a deadline is
// 504, a malformed row in a coalesced batch is the client's 400, and
// anything else is the daemon's 500.
func (s *Server) classify(err error) (status int, msg string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.m.deadline.Inc()
		return http.StatusGatewayTimeout, "deadline exceeded"
	case errors.Is(err, codeletfft.ErrLengthMismatch):
		s.m.bad.Inc()
		return http.StatusBadRequest, err.Error()
	default:
		s.m.internal.Inc()
		return http.StatusInternalServerError, err.Error()
	}
}

// fail answers a request that was admitted but not served.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status, msg := s.classify(err)
	http.Error(w, msg, status)
}

// reject answers a request whose shape is wrong before any work happens.
func (s *Server) reject(w http.ResponseWriter, err error) {
	s.m.bad.Inc()
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// splitRows slices flat into consecutive n-point rows.
func splitRows(flat []complex128, n int) [][]complex128 {
	rows := make([][]complex128, len(flat)/n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n]
	}
	return rows
}
