// The shard-exec endpoint is the worker half of the cluster path
// (internal/dist): a coordinator four-steps a large transform and posts
// the frames of a resident session here. Each op executes synchronously
// through the pipeline's run — one TransformBatch over the op's
// vectors, plus the twiddle-segment scaling for columns — inside the
// server's admission and drain accounting, so a draining worker refuses
// session frames with 503 exactly like client requests and Drain still
// proves the queue empty.
package serve

import (
	"net/http"
	"time"

	"codeletfft/internal/cache"
	"codeletfft/internal/fft"
)

// twiddleCache memoizes TwiddlesAny(totalN) across column slabs whose
// modulus is not a power of two, so a worker computes each such table
// once. Column slabs of a few transform sizes dominate real traffic,
// so 2×4 entries is ample; an entry is 16·totalN bytes, which also
// argues for a small bound.
var twiddleCache = cache.New[int, []complex128](2, 4, func(n int) uint64 {
	h := uint64(n) * 0x9e3779b97f4a7c15
	return h ^ h>>29
})

// scaleColumns applies the four-step twiddle segment to transformed
// columns start, start+1, …: cols[v][k] *= ω_totalN^{(start+v)·k}.
// Power-of-two moduli scale through fft's two-level table — the one the
// serial fft.FourStepPlan uses, so the two agree bit for bit on equal
// sub-FFT output; other moduli — legal since a session's N1·N2 need not
// be a power of two — use the full general-modulus table.
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

// handleShard executes one shard-endpoint frame: the body is read into
// a pooled buffer and handed to the resident-session handlers
// (session.go). Anything that is not a session frame — an FFS1 frame
// included — gets the session decoder's 400.
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

	bp, err := ReadBodyPooled(http.MaxBytesReader(w, r.Body, maxPooledBody), r.ContentLength)
	if err != nil {
		s.m.shardBad.Inc()
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	defer ReleaseFrame(bp)
	s.handleSession(ctx, w, *bp)
}
