// Coordinator half of the resident-shard session protocol: the
// cluster's one data path. Each worker receives its column slab once,
// keeps its row block resident while the workers exchange the
// transpose among themselves, and returns the finished rows once — so
// the coordinator's traffic is exactly one trip out and one trip in
// per element (2·16·N payload bytes per transform, plus headers), the
// invariant dist_resident_bytes_total / dist_resident_elems_total
// exposes and CI gates on.
//
// The coordinator runs the four-step's first and last steps
// (fft.FourStepPlan, DESIGN §12) and the workers the three between, so
// the cluster's output is the serial plan's, bit for bit, however the
// transform is partitioned.
//
// Buffer ownership per phase (coordinator side):
//
//   - gather: each worker's goroutine moves that worker's column slab —
//     columns [c0, c1) of the caller's row-major N1×N2 array — each into
//     a contiguous vector (FourStepPlan.ColumnsFrom), into
//     cols[c0·N1 : c1·N1] of a pooled buffer and encodes its cols frame
//     straight from that slice, so the first worker is computing while
//     the last slab is still being moved and no per-worker copy exists.
//     The caller's array is only read;
//   - resident: the coordinator holds nothing; workers own their row
//     blocks;
//   - fetch: each worker's rows response — its row block, transformed —
//     decodes straight into its slice of the cols buffer, which no
//     frame reads once the cols barrier has returned;
//   - final transpose: only after every fetch succeeded — so a failed
//     session leaves the input untouched, and Transform retries with a
//     fresh session on the workers that are left — the row blocks are
//     transposed (FourStepPlan.TransposeRows), as units of the
//     process's worker pool (host.Do), into the caller's array in
//     direct-DFT bin order.
//
// The inverse rides on the same two moves: the gather conjugates and the
// final transpose conjugates and scales by 1/N — the conjugation
// identity's two sweeps, the same arithmetic per element, with no pass
// of their own and no write to the caller's array before the rows
// barrier.
//
// A healthy transform is three RPCs per worker — open, cols, rows — and
// the rows reply ends the worker's session, so there is no close round.
//
// Failure: a session that loses any RPC is abandoned — the sessions on
// the workers that answered are closed (OpSessClose is the abort path
// only) — and the failure is held against one address (blame). The
// survivors' rows buffers are sized to the abandoned partition, which is
// why the retry is a new session and not a repair of the old one.
package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
	"codeletfft/internal/serve"
)

// residentWorker is one worker's slice of a resident transform.
type residentWorker struct {
	addr string
	spec serve.SessionSpec
}

// sessionIDs hands out coordinator-unique session IDs, seeded from the
// clock so two coordinator processes opening sessions on one worker
// don't collide at id 1.
var sessionIDs atomic.Uint64

func init() { sessionIDs.Store(uint64(time.Now().UnixNano())) }

func nextSessionID() uint64 { return sessionIDs.Add(1) }

// parallelWorkers runs fn once per worker concurrently; the first
// error held against an address cancels the rest. An error that blames
// nobody — a 429, a step that found a session ended — leaves the others
// to finish, so the failure behind it is met and blamed rather than
// cancelled. It returns nil when every call succeeded and otherwise
// each worker's error — the cancelled siblings' included — at the
// worker's index. This is the RPC fan-out: every fn blocks in a session
// call, so each gets a goroutine of its own rather than a slot in the
// process's CPU pool.
func parallelWorkers(ctx context.Context, ws []*residentWorker, fn func(ctx context.Context, w *residentWorker) error) []error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(ws))
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *residentWorker) {
			defer wg.Done()
			if err := fn(ctx, w); err != nil {
				errs[i] = err
				var be *blameError
				if errors.As(err, &be) {
					cancel()
				}
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return errs
		}
	}
	return nil
}

// blameError is a failed session RPC with the address the failure is
// held against — the address the next attempt of the transform leaves
// out.
type blameError struct {
	addr string
	err  error
}

func (e *blameError) Error() string { return e.err.Error() }
func (e *blameError) Unwrap() error { return e.err }

// blame names the address a failed RPC to addr is held against: the
// address that did not answer. That is addr itself — a draining
// worker's 503 included, it is leaving — except that a worker whose
// exchange push failed names the silent peer, and two answers blame
// nobody: a 429, a full session table or admission queue, is
// back-pressure from a healthy worker, to be waited out; a 409 is a
// cols step that found a session ended under it, whose cause another
// RPC of the attempt meets.
func blame(addr string, err error) string {
	var se *serve.StatusError
	if errors.As(err, &se) {
		if se.Code == http.StatusTooManyRequests || se.Code == http.StatusConflict {
			return ""
		}
		if se.Peer != "" {
			return se.Peer
		}
	}
	return addr
}

// call is one session RPC to addr: it posts req, reads the reply — a
// payload straight into into — and holds the reply's header to want's
// op and shape. It brackets the RPC with the per-RPC deadline, the
// attempt and latency instruments, and the blame a failure earns. A
// call that ends because ctx did — the caller gave up, or a sibling's
// failure cancelled the phase — blames nobody. A success is no verdict
// either: membership hears that once the whole session completed.
func (c *Coordinator) call(ctx context.Context, addr string, req, want serve.SessionFrame, into []complex128) error {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	c.m.attempts.Inc()
	start := time.Now()
	reply, err := serve.PostSessionFrame(cctx, c.cfg.Client, addr, req, into)
	if err == nil && (reply.Op != want.Op || reply.VecLen != want.VecLen || reply.VecCount != want.VecCount || reply.Arg0 != want.Arg0) {
		err = fmt.Errorf("dist: worker %s answered %s with %s %d×%d@%d",
			addr, req.Op, reply.Op, reply.VecCount, reply.VecLen, reply.Arg0)
	}
	d := time.Since(start).Seconds()
	c.m.rpcSec.Observe(d)
	c.m.perWorkerSec(addr).Observe(d)
	if err == nil || ctx.Err() != nil {
		return err
	}
	bad := blame(addr, err)
	if bad == "" {
		return err
	}
	c.m.errors.Inc()
	c.m.perWorkerErr(bad).Inc()
	c.members.ReportFailure(bad)
	return &blameError{addr: bad, err: err}
}

// runSession is one attempt at the transform — the inverse one via the
// conjugation identity when inverse is set: a fresh session over addrs,
// open → cols → rows, and each worker's rows reply ends its session. It
// reports whether data holds the result; if not, data is untouched, the
// sessions on the workers that answered are closed and the addresses the
// failure is held against are added to blamed.
func (c *Coordinator) runSession(ctx context.Context, fs *fft.FourStepPlan, addrs []string, data []complex128, inverse bool, blamed map[string]bool) bool {
	w := len(addrs)
	ws := make([]*residentWorker, w)
	// Contiguous near-even partition of both the N2 columns and the N1
	// rows; worker i's peers are every other worker's row block.
	for i, addr := range addrs {
		ws[i] = &residentWorker{addr: addr, spec: serve.SessionSpec{
			N1: fs.N1, N2: fs.N2,
			ColStart: i * fs.N2 / w, ColCount: (i+1)*fs.N2/w - i*fs.N2/w,
			RowStart: i * fs.N1 / w, RowCount: (i+1)*fs.N1/w - i*fs.N1/w,
		}}
	}
	for i, rw := range ws {
		for j, pw := range ws {
			if i == j {
				continue
			}
			rw.spec.Peers = append(rw.spec.Peers, serve.PeerRange{
				Addr: pw.addr, RowStart: pw.spec.RowStart, RowCount: pw.spec.RowCount,
			})
		}
	}

	var moved atomic.Int64 // coordinator↔worker wire bytes, both directions
	// One distributed session: the SAME coordinator-chosen id on every
	// worker, so a peer exchange frame carrying that id lands in the
	// receiving worker's session table. Every frame but the rows fetch is
	// answered with a header-only ack.
	sid := nextSessionID()
	ack := serve.SessionFrame{Op: serve.OpSessAck}

	// abandon gives up on the sessions after a failed phase: it closes
	// the session on every worker that answered, whatever became of ctx —
	// an open cancelled by a sibling's failure may have landed, and
	// closing an unknown session is a no-op. A worker whose own call was
	// held against it is not sent a close: it did not answer, and a
	// stopped one would cost a second ShardTimeout. Its session ends with
	// the step that failed, if the frame reached it, and otherwise with
	// the worker's idle timer.
	abandon := func(errs []error) bool {
		var answered []*residentWorker
		for i, rw := range ws {
			var be *blameError
			if errors.As(errs[i], &be) {
				blamed[be.addr] = true
				if be.addr == rw.addr {
					continue
				}
			}
			answered = append(answered, rw)
		}
		// A close that fails is no reason to stop the others: fn never
		// returns an error, so no sibling is cancelled.
		parallelWorkers(context.WithoutCancel(ctx), answered, func(ctx context.Context, rw *residentWorker) error {
			if c.call(ctx, rw.addr, serve.SessionFrame{Op: serve.OpSessClose, ID: sid}, ack, nil) == nil {
				moved.Add(2 * serve.SessionHeaderLen)
			}
			return nil
		})
		c.m.bytesMoved.Add(moved.Load())
		return false
	}

	// Phase 0: open the session on every worker.
	if errs := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		req := serve.SessionFrame{Op: serve.OpSessOpen, ID: sid, Spec: &rw.spec}
		if err := c.call(ctx, rw.addr, req, ack, nil); err != nil {
			return err
		}
		moved.Add(int64(serve.SessionFrameLen(req)) + serve.SessionHeaderLen)
		return nil
	}); errs != nil {
		return abandon(errs)
	}
	c.m.sessions.Add(int64(w))

	// Phase 1: each worker's goroutine moves that worker's column slab —
	// data's columns [ColStart, ColStart + ColCount), each into its own
	// vector of the pooled buffer, conjugating on the way for the inverse
	// — and ships it straight out of that slice, so one worker computes
	// while the next slab is still being moved. The ack returns
	// only once the worker has pushed every peer's row block, so after
	// this barrier every rows buffer in the cluster is complete.
	colsBuf := serve.AcquireComplex(fs.N)
	defer serve.ReleaseComplex(colsBuf)
	cols := *colsBuf
	if errs := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		sp := rw.spec
		slab := cols[sp.ColStart*sp.N1 : (sp.ColStart+sp.ColCount)*sp.N1]
		fs.ColumnsFrom(slab, data[sp.ColStart:], sp.ColCount, inverse)
		req := serve.SessionFrame{
			Op: serve.OpSessCols, ID: sid, VecLen: sp.N1, VecCount: sp.ColCount, Arg0: sp.ColStart,
			Data: slab,
		}
		moved.Add(int64(serve.SessionFrameLen(req)) + serve.SessionHeaderLen)
		return c.call(ctx, rw.addr, req, ack, nil)
	}); errs != nil {
		return abandon(errs)
	}

	// Phase 2: fetch each finished row block straight into its slice
	// of the cols buffer, which no frame reads any more (PostSessionFrame
	// has returned). The fetch ends the worker's session.
	rows := cols
	if errs := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		sp := rw.spec
		into := rows[sp.RowStart*sp.N2 : (sp.RowStart+sp.RowCount)*sp.N2]
		want := serve.SessionFrame{Op: serve.OpSessRows, VecLen: sp.N2, VecCount: sp.RowCount, Arg0: sp.RowStart}
		if err := c.call(ctx, rw.addr, serve.SessionFrame{Op: serve.OpSessRows, ID: sid}, want, into); err != nil {
			return err
		}
		moved.Add(2*serve.SessionHeaderLen + 16*int64(len(into)))
		return nil
	}); errs != nil {
		return abandon(errs)
	}
	// The session completed, and that is the verdict membership hears:
	// a worker that answers the early frames and fails a late one is
	// still failing, and an answered open must not clear that.
	for _, rw := range ws {
		c.members.ReportSuccess(rw.addr)
	}

	// Only now, with every row block fetched, is the caller's data
	// written: each block is transposed into direct-DFT bin order, bin k2
	// of row k1 at data[k2·N1+k1], applying the inverse's
	// conjugate-and-scale on the way. The blocks are compute, not I/O:
	// they are dealt to the process's worker pool.
	host.Do(len(ws), &fft.Pass{Units: len(ws), Run: func(_ *fft.State, lo, hi int) {
		for _, rw := range ws[lo:hi] {
			sp := rw.spec
			block := rows[sp.RowStart*sp.N2 : (sp.RowStart+sp.RowCount)*sp.N2]
			fs.TransposeRows(data[sp.RowStart:], block, sp.RowCount, inverse)
		}
	}}, nil)
	total := moved.Load()
	c.m.bytesMoved.Add(total)
	c.m.transformB.Observe(float64(total))
	c.m.residentBytes.Add(total)
	c.m.residentElems.Add(int64(fs.N))
	c.m.residentOK.Inc()
	return true
}
