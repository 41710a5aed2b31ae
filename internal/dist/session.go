// Coordinator half of the resident-shard session protocol: the
// cluster's one data path. Each worker receives its column slab once,
// keeps its row block resident while the workers exchange the
// transpose among themselves, and returns the finished rows once — so
// the coordinator's traffic is exactly one trip out and one trip in
// per element (2·16·N payload bytes per transform, plus headers), the
// invariant dist_resident_bytes_total / dist_resident_elems_total
// exposes and CI gates on.
//
// Buffer ownership per phase (coordinator side):
//
//   - gather: each worker's goroutine transposes that worker's column
//     slab — columns [c0, c1) of the caller's row-major N1×N2 array —
//     in tiles (fft.TransposeBlock) into cols[c0·N1 : c1·N1] of a pooled
//     column-major buffer and encodes its cols frame straight from that
//     slice, so the first worker is computing while the last slab is
//     still being gathered and no per-worker copy exists. The caller's
//     array is only read;
//   - resident: the coordinator holds nothing; workers own their row
//     blocks;
//   - fetch: each worker's rows response decodes straight into its
//     slice of a pooled rows buffer;
//   - final transpose: only after every fetch succeeded — so a failed
//     session leaves the input untouched, and Transform retries with a
//     fresh session on the workers that are left — the row blocks are
//     transposed, as units of the process's worker pool (host.Do), into
//     the caller's array in direct-DFT bin order.
//
// The inverse rides on the same two moves: the gather conjugates
// (TransposeBlockConj) and the final transpose conjugates and scales by
// 1/N (TransposeBlockConjScale) — the conjugation identity's two sweeps,
// the same arithmetic per element, with no pass of their own and no
// write to the caller's array before the rows barrier.
//
// Failure: a session that loses any RPC is abandoned — the sessions on
// the workers that still answer are closed — and the failure is held
// against one address (blame). The survivors' rows buffers are sized to
// the abandoned partition, which is why the retry is a new session and
// not a repair of the old one.
package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
	"codeletfft/internal/serve"
)

// residentKey places a transform shape on the ring: same N1×N2 → same
// worker set, so each worker's plan cache and twiddle cache stay warm.
func residentKey(n1, n2 int) uint64 {
	h := fnv.New64a()
	var b [17]byte
	b[0] = 0xF5 // arbitrary domain byte; changing it only moves placement
	binary.LittleEndian.PutUint64(b[1:9], uint64(n1))
	binary.LittleEndian.PutUint64(b[9:17], uint64(n2))
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// residentWorker is one worker's slice of a resident transform.
type residentWorker struct {
	addr string
	spec serve.SessionSpec
	sess Session
}

// parallelWorkers runs fn once per worker concurrently; the first
// error cancels the rest. It returns nil when every call succeeded and
// otherwise each worker's error — the cancelled siblings' included —
// at the worker's index. This is the RPC fan-out: every fn blocks in a
// session call, so each gets a goroutine of its own rather than a slot
// in the process's CPU pool.
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
				cancel()
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
// exchange push failed names the silent peer, and a 429 blames nobody:
// a full session table or admission queue is back-pressure from a
// healthy worker, to be waited out.
func blame(addr string, err error) string {
	var se *statusError
	if errors.As(err, &se) {
		if se.code == http.StatusTooManyRequests {
			return ""
		}
		if se.peer != "" {
			return se.peer
		}
	}
	return addr
}

// call brackets one session RPC to addr: the per-RPC deadline, the
// attempt and latency instruments, and the verdict membership hears. A
// call that ends because ctx did — the caller gave up, or a sibling's
// failure cancelled the phase — is no verdict on anybody.
func (c *Coordinator) call(ctx context.Context, addr string, fn func(ctx context.Context) error) error {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	c.m.attempts.Inc()
	start := time.Now()
	err := fn(cctx)
	d := time.Since(start).Seconds()
	c.m.rpcSec.Observe(d)
	c.m.perWorkerSec(addr).Observe(d)
	if err == nil {
		c.members.ReportSuccess(addr)
		return nil
	}
	if ctx.Err() != nil {
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
// open → cols → rows → close. It reports whether data holds the result;
// if not, data is untouched, the sessions are closed and the addresses
// the failure is held against are added to blamed.
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

	// closeAll closes every session, whatever became of ctx: a worker's
	// rows buffer stays pinned until its session closes or expires.
	closeAll := func() {
		cctx := context.WithoutCancel(ctx)
		var wg sync.WaitGroup
		for _, rw := range ws {
			if rw.sess == nil {
				continue
			}
			wg.Add(1)
			go func(rw *residentWorker) { // RPC fan-out: blocks in the close call
				defer wg.Done()
				if c.call(cctx, rw.addr, rw.sess.CloseSession) == nil {
					moved.Add(2 * serve.SessionHeaderLen)
				}
			}(rw)
		}
		wg.Wait()
	}
	// abandon gives up on the sessions after a failed phase. A worker
	// whose own call was held against it is not sent a close: it did not
	// answer, a stopped one would cost a second ShardTimeout, and its
	// session, if it has one, goes with the worker's SessionTTL.
	abandon := func(errs []error) bool {
		for i, rw := range ws {
			var be *blameError
			if errors.As(errs[i], &be) {
				blamed[be.addr] = true
				if be.addr == rw.addr {
					rw.sess = nil
				}
			}
		}
		closeAll()
		c.m.bytesMoved.Add(moved.Load())
		return false
	}

	// Phase 0: open one distributed session — the SAME coordinator-chosen
	// id on every worker, so a peer exchange frame carrying that id lands
	// in the receiving worker's session table.
	sid := nextSessionID()
	if errs := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		return c.call(ctx, rw.addr, func(ctx context.Context) error {
			sess, err := c.cfg.Transport.OpenSession(ctx, rw.addr, rw.spec, sid)
			// Kept on failure too: an open cancelled by a sibling's failure
			// may have landed, and closing an unknown session is a no-op.
			rw.sess = sess
			if err != nil {
				return err
			}
			frame := serve.SessionFrame{Op: serve.OpSessOpen, Spec: &rw.spec}
			moved.Add(int64(serve.SessionFrameLen(frame)) + serve.SessionHeaderLen)
			return nil
		})
	}); errs != nil {
		return abandon(errs)
	}
	c.m.sessions.Add(int64(w))

	// Phase 1: each worker's goroutine gathers that worker's column slab
	// — a tiled transposition of data's columns [ColStart, ColStart +
	// ColCount) into the slab's own slice of the pooled column-major
	// buffer, conjugating on the way for the inverse — and ships it
	// straight out of that slice, so one worker computes while the next
	// slab is still being gathered. The ack returns only once the worker
	// has pushed every peer's row block, so after this barrier every rows
	// buffer in the cluster is complete.
	colsBuf := serve.AcquireComplex(fs.N)
	defer serve.ReleaseComplex(colsBuf)
	cols := *colsBuf
	if errs := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		sp := rw.spec
		slab := cols[sp.ColStart*sp.N1 : (sp.ColStart+sp.ColCount)*sp.N1]
		if inverse {
			fft.TransposeBlockConj(slab, sp.N1, data[sp.ColStart:], sp.N2, sp.N1, sp.ColCount)
		} else {
			fft.TransposeBlock(slab, sp.N1, data[sp.ColStart:], sp.N2, sp.N1, sp.ColCount)
		}
		req := serve.SessionFrame{
			Op: serve.OpSessCols, VecLen: sp.N1, VecCount: sp.ColCount, Arg0: sp.ColStart,
			Data: slab,
		}
		moved.Add(int64(serve.SessionFrameLen(req)) + serve.SessionHeaderLen)
		return c.call(ctx, rw.addr, func(ctx context.Context) error {
			ack, err := rw.sess.ExecShard(ctx, req, nil)
			if err != nil {
				return err
			}
			if ack.Op != serve.OpSessAck {
				return fmt.Errorf("dist: worker %s answered cols with %s", rw.addr, ack.Op)
			}
			return nil
		})
	}); errs != nil {
		return abandon(errs)
	}

	// Phase 2: fetch each finished row block straight into its slice
	// of the pooled rows buffer.
	rowsBuf := serve.AcquireComplex(fs.N)
	defer serve.ReleaseComplex(rowsBuf)
	rows := *rowsBuf
	if errs := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		sp := rw.spec
		into := rows[sp.RowStart*sp.N2 : (sp.RowStart+sp.RowCount)*sp.N2]
		return c.call(ctx, rw.addr, func(ctx context.Context) error {
			resp, err := rw.sess.ExecShard(ctx, serve.SessionFrame{Op: serve.OpSessRows}, into)
			if err != nil {
				return err
			}
			if resp.Op != serve.OpSessRows || resp.VecLen != sp.N2 || resp.VecCount != sp.RowCount || resp.Arg0 != sp.RowStart {
				return fmt.Errorf("dist: worker %s returned mismatched rows (%s %d×%d@%d)",
					rw.addr, resp.Op, resp.VecCount, resp.VecLen, resp.Arg0)
			}
			moved.Add(2*serve.SessionHeaderLen + 16*int64(len(resp.Data)))
			return nil
		})
	}); errs != nil {
		return abandon(errs)
	}

	// Only now, with every row block fetched, is the caller's data
	// written: each block is transposed into direct-DFT bin order,
	// data[k2·N1+k1] = rows[k1·N2+k2], applying the inverse's
	// conjugate-and-scale on the way. The blocks are compute, not I/O:
	// they are dealt to the process's worker pool.
	host.Do(len(ws), len(ws), func(lo, hi int) {
		for _, rw := range ws[lo:hi] {
			sp := rw.spec
			block := rows[sp.RowStart*sp.N2 : (sp.RowStart+sp.RowCount)*sp.N2]
			if inverse {
				fft.TransposeBlockConjScale(data[sp.RowStart:], sp.N1, block, sp.N2, sp.RowCount, sp.N2, 1/float64(fs.N))
			} else {
				fft.TransposeBlock(data[sp.RowStart:], sp.N1, block, sp.N2, sp.RowCount, sp.N2)
			}
		}
	})
	closeAll()
	total := moved.Load()
	c.m.bytesMoved.Add(total)
	c.m.transformB.Observe(float64(total))
	c.m.residentBytes.Add(total)
	c.m.residentElems.Add(int64(fs.N))
	c.m.residentOK.Inc()
	return true
}
