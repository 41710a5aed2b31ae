// The shard-exec endpoint is the worker half of the cluster path
// (internal/dist): a coordinator four-steps a large transform and posts
// the column/row segments here as shard frames. Each shard executes
// synchronously through the pipeline's run — one TransformBatch over the
// shard's vectors, plus the twiddle-segment scaling for column shards —
// inside the server's admission and drain accounting, so a draining
// worker refuses shards with 503 exactly like client requests and Drain
// still proves the queue empty.
package serve

import (
	"fmt"
	"net/http"
	"time"

	"codeletfft/internal/cache"
	"codeletfft/internal/fft"
)

// twiddleCache memoizes TwiddlesAny(totalN) across column shards whose
// modulus is not a power of two, so a worker computes each such table
// once. Column shards of a few transform sizes dominate real traffic,
// so 2×4 entries is ample; an entry is 16·totalN bytes, which also
// argues for a small bound.
var twiddleCache = cache.New[int, []complex128](2, 4, func(n int) uint64 {
	h := uint64(n) * 0x9e3779b97f4a7c15
	return h ^ h>>29
})

// scaleColumns applies the four-step twiddle segment to transformed
// columns start, start+1, …: cols[v][k] *= ω_totalN^{(start+v)·k}.
// Power-of-two moduli scale through fft's two-level table — the one the
// serial reference and the coordinator's local path use, so the three
// agree bit for bit on equal sub-FFT output; other moduli — legal since
// the codec accepts any totalN that is a multiple of vecLen — use the
// full general-modulus table.
func scaleColumns(cols [][]complex128, start, totalN int) error {
	if fft.Log2(totalN) >= 0 {
		tw := fft.TwoLevelTwiddles(totalN)
		for v, col := range cols {
			tw.Scale(col, start+v)
		}
		return nil
	}
	w, err := twiddleCache.GetOrCreate(totalN, func() ([]complex128, error) {
		return fft.TwiddlesAny(totalN), nil
	})
	if err != nil {
		return err
	}
	for v, col := range cols {
		fft.TwiddleScaleAny(col, w, start+v, totalN)
	}
	return nil
}

// handleShard executes one shard-endpoint frame. The body is read into
// a pooled buffer and dispatched on its magic: FFS2 session frames go
// to the resident-session handlers (session.go) unless sessions are
// disabled — in which case they fall through to the FFS1 decoder and
// fail with the same 400 an old worker would send, the behaviour the
// coordinator's capability negotiation relies on. FFS1 one-shot frames
// decode straight into pooled scratch, execute, and stream back out of
// it.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.m.shardRequests.Inc()
	defer func() { s.m.shardSec.Observe(time.Since(start).Seconds()) }()

	// One admission token covers the whole request — body, dispatch,
	// peer pushes, response — for every op, so Drain's empty-queue test
	// means "nothing in flight" for cluster traffic too.
	ctx, cancel, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer cancel()
	defer s.release()

	bp, err := s.readShardBody(w, r)
	if err != nil {
		s.m.shardBad.Inc()
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	defer ReleaseFrame(bp)
	raw := *bp

	if IsSessionFrame(raw) && !s.cfg.DisableSessions {
		s.handleSession(ctx, w, raw)
		return
	}

	// FFS1 one-shot path: wire → pooled scratch, in-place execution,
	// streamed response out of the same scratch.
	elems := ShardFrameElems(raw)
	if elems < 0 {
		s.m.shardBad.Inc()
		_, err := DecodeShardFrame(raw) // recover the precise rejection
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scratch := AcquireComplex(elems)
	defer ReleaseComplex(scratch)
	f, err := DecodeShardFrameInto(raw, *scratch)
	if err != nil {
		s.m.shardBad.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if f.VecLen > s.cfg.MaxN {
		s.m.shardBad.Inc()
		http.Error(w, fmt.Sprintf("vector length %d exceeds served maximum %d", f.VecLen, s.cfg.MaxN),
			http.StatusBadRequest)
		return
	}

	if err := s.execShard(f); err != nil {
		s.fail(w, err)
		return
	}
	s.m.shardOK.Inc()
	s.m.shardVecs.Add(int64(f.VecCount()))
	hp := AcquireFrame(shardHeaderLen)
	defer ReleaseFrame(hp)
	writeFrameStreaming(w, appendShardHeader((*hp)[:0], f), f.Data)
}

// execShard transforms the frame's vectors in place.
func (s *Server) execShard(f ShardFrame) error {
	vecs := splitRows(f.Data, f.VecLen)
	var scale func() error
	if f.Op == OpColumns {
		scale = func() error { return scaleColumns(vecs, f.Start, f.TotalN) }
	}
	return s.run(batchKey{n: f.VecLen, kind: KindForward}, vecs, nil, scale)
}
