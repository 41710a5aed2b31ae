// The shard-exec endpoint is the worker half of the cluster path
// (internal/dist): a coordinator four-steps a large transform and posts
// the frames of a resident session here. Each op executes synchronously
// — the four-step's column and row steps behind the pipeline's one
// isolation boundary (isolate) — inside the server's admission and drain
// accounting, so a draining worker refuses session frames with 503
// exactly like client requests and Drain still proves the queue empty.
package serve

import (
	"net/http"
	"time"
)

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
