// Coordinator half of the resident-shard session protocol: the
// communication-avoiding four-step data path. The legacy one-shot path
// moves every element over the coordinator's wire four times (columns
// out/back, rows out/back); here each worker receives its column slab
// once, keeps its row block resident while the workers exchange the
// transpose among themselves, and returns the finished rows once — so
// the coordinator's traffic is exactly one trip out and one trip in
// per element (2·16·N payload bytes per transform, plus headers), the
// invariant dist_resident_bytes_total / dist_resident_elems_total
// exposes and CI gates on.
//
// Buffer ownership per phase (coordinator side):
//
//   - gather: a pooled cols buffer receives GatherColumns; each
//     worker's cols frame encodes straight from its contiguous slice
//     of that buffer (columns [c0, c1) occupy exactly
//     cols[c0·N1 : c1·N1] in column-major order — no per-worker copy);
//   - resident: the coordinator holds nothing; workers own their row
//     blocks;
//   - fetch: each worker's rows response decodes straight into its
//     slice of a pooled rows buffer, and FinalTranspose writes the
//     caller's output only after every fetch succeeded — so any
//     mid-session failure leaves the input untouched and the transform
//     falls back to the legacy path (retries, hedging, local shards).
//
// Capability negotiation: a worker that rejects the FFS2 open (an old
// FFS1-only daemon answers 400 to the unknown magic) is cached as
// legacy-only for a minute and the transform proceeds one-shot; mixed
// fleets therefore degrade per-worker, not per-cluster.
package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/serve"
)

// capabilityTTL is how long a worker stays cached as FFS1-only after
// rejecting a session open; after it expires the coordinator probes
// again, so an upgraded worker rejoins the resident path.
const capabilityTTL = time.Minute

// markLegacy caches addr as FFS1-only.
func (c *Coordinator) markLegacy(addr string) {
	c.caps.Store(addr, time.Now().Add(capabilityTTL))
	c.m.capabilityOld.Inc()
}

// isLegacy reports whether addr is cached as FFS1-only.
func (c *Coordinator) isLegacy(addr string) bool {
	v, ok := c.caps.Load(addr)
	if !ok {
		return false
	}
	if time.Now().After(v.(time.Time)) {
		c.caps.Delete(addr)
		return false
	}
	return true
}

// residentKey places a transform shape on the ring: same N1×N2 → same
// worker set, so each worker's plan cache and twiddle cache stay warm.
func residentKey(n1, n2 int) uint64 {
	h := fnv.New64a()
	var b [17]byte
	b[0] = 0xF5 // domain-separate from shardKey
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
// error cancels the rest and is returned.
func parallelWorkers(ctx context.Context, ws []*residentWorker, fn func(ctx context.Context, w *residentWorker) error) error {
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
	// Prefer a root-cause error: the first failure cancels the rest, so
	// sibling goroutines often surface context.Canceled.
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if !errors.Is(e, context.Canceled) {
			return e
		}
		if first == nil {
			first = e
		}
	}
	return first
}

// transformResident attempts the communication-avoiding path. handled
// reports whether the transform was completed (or definitively failed,
// e.g. the context expired); (false, nil) means "fall back to the
// legacy one-shot path with the input untouched".
func (c *Coordinator) transformResident(ctx context.Context, st SessionTransport, data []complex128) (handled bool, err error) {
	fs, err := c.fourStepFor(len(data))
	if err != nil {
		return false, nil // the legacy path will surface the same error
	}
	maxW := min(c.members.EligibleCount(), fs.N1, fs.N2)
	if maxW < 1 {
		return false, nil
	}
	cands := c.members.Successors(residentKey(fs.N1, fs.N2), maxW, nil)
	ws := make([]*residentWorker, 0, len(cands))
	for _, addr := range cands {
		if !c.isLegacy(addr) {
			ws = append(ws, &residentWorker{addr: addr})
		}
	}
	if len(ws) == 0 {
		return false, nil
	}
	w := len(ws)
	// Contiguous near-even partition of both the N2 columns and the N1
	// rows; worker i's peers are every other worker's row block.
	for i, rw := range ws {
		rw.spec = serve.SessionSpec{
			N1: fs.N1, N2: fs.N2,
			ColStart: i * fs.N2 / w, ColCount: (i+1)*fs.N2/w - i*fs.N2/w,
			RowStart: i * fs.N1 / w, RowCount: (i+1)*fs.N1/w - i*fs.N1/w,
		}
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

	closeAll := func() {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for _, rw := range ws {
			if rw.sess == nil {
				continue
			}
			wg.Add(1)
			go func(rw *residentWorker) {
				defer wg.Done()
				done := c.startRPC(rw.addr)
				err := rw.sess.CloseSession(cctx)
				done()
				if err == nil {
					moved.Add(2 * serve.SessionHeaderLen)
				}
			}(rw)
		}
		wg.Wait()
	}
	fallback := func(error) (bool, error) {
		closeAll()
		c.m.bytesMoved.Add(moved.Load())
		c.m.residentFall.Inc()
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		return false, nil
	}

	// Phase 0: open one distributed session — the SAME coordinator-chosen
	// id on every worker, so a peer exchange frame carrying that id lands
	// in the receiving worker's session table.
	sid := nextSessionID()
	openErr := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		open := serve.SessionFrame{Op: serve.OpSessOpen, Spec: &rw.spec}
		done := c.startRPC(rw.addr)
		sess, err := st.OpenSession(ctx, rw.addr, rw.spec, sid)
		done()
		if err != nil {
			if errors.Is(err, ErrSessionUnsupported) {
				c.markLegacy(rw.addr)
			}
			return err
		}
		moved.Add(int64(serve.SessionFrameLen(open)) + serve.SessionHeaderLen)
		rw.sess = sess
		return nil
	})
	if openErr != nil {
		return fallback(openErr)
	}
	c.m.sessions.Add(int64(w))

	// Phase 1: gather once, ship each worker's column slab directly
	// out of the pooled column-major buffer. The ack returns only once
	// the worker has pushed every peer's row block, so after this
	// barrier every rows buffer in the cluster is complete.
	colsBuf := serve.AcquireComplex(fs.N)
	defer serve.ReleaseComplex(colsBuf)
	cols := *colsBuf
	fs.GatherColumns(cols, data)
	colsErr := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		sp := rw.spec
		req := serve.SessionFrame{
			Op: serve.OpSessCols, VecLen: sp.N1, VecCount: sp.ColCount, Arg0: sp.ColStart,
			Data: cols[sp.ColStart*sp.N1 : (sp.ColStart+sp.ColCount)*sp.N1],
		}
		moved.Add(int64(serve.SessionFrameLen(req)) + serve.SessionHeaderLen)
		done := c.startRPC(rw.addr)
		ack, err := rw.sess.ExecShard(ctx, req, nil)
		done()
		if err != nil {
			return err
		}
		if ack.Op != serve.OpSessAck {
			return fmt.Errorf("dist: worker %s answered cols with %s", rw.addr, ack.Op)
		}
		return nil
	})
	if colsErr != nil {
		return fallback(colsErr)
	}

	// Phase 2: fetch each finished row block straight into its slice
	// of the pooled rows buffer. The caller's data is only written
	// after every fetch succeeded.
	rowsBuf := serve.AcquireComplex(fs.N)
	defer serve.ReleaseComplex(rowsBuf)
	rows := *rowsBuf
	rowsErr := parallelWorkers(ctx, ws, func(ctx context.Context, rw *residentWorker) error {
		sp := rw.spec
		into := rows[sp.RowStart*sp.N2 : (sp.RowStart+sp.RowCount)*sp.N2]
		done := c.startRPC(rw.addr)
		resp, err := rw.sess.ExecShard(ctx, serve.SessionFrame{Op: serve.OpSessRows}, into)
		done()
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
	if rowsErr != nil {
		return fallback(rowsErr)
	}

	fs.FinalTranspose(data, rows)
	closeAll()
	total := moved.Load()
	c.m.bytesMoved.Add(total)
	c.m.transformB.Observe(float64(total))
	c.m.residentBytes.Add(total)
	c.m.residentElems.Add(int64(fs.N))
	c.m.residentOK.Inc()
	return true, nil
}
