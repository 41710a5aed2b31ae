// Worker half of the resident-shard session protocol (FFS2,
// sessionframe.go). A coordinator opens a session describing the
// four-step geometry and this worker's slice of it, ships the worker's
// column slab once, and fetches the finished row block once; between
// those two transfers the data stays resident here. The communication-
// avoiding step is the transpose: after the column FFTs the worker
// scales its own rows into the resident rows buffer and pushes every
// peer's row block directly to that peer, so the all-to-all that
// dominates distributed four-step never passes through the coordinator.
// A push is the coordinator's own hop: PostSessionFrame through the
// worker's Config.Client, which a socket or an in-process
// dist.Loopback carries.
//
// The worker runs steps 2–4 of fft.FourStepPlan (DESIGN §12) on the
// session's plan; the coordinator runs 1 and 5. So the cols payload
// arrives as split planes — column v as the planes of its N1-element
// vector, bit-reversed — and the rows reply leaves as split planes; only
// the exchange between workers carries samples.
//
// Every hop moves a payload byte once (WriteSessionFrame on one end,
// ReadSessionFrame on the other: sessionframe.go). Buffer ownership per
// phase:
//
//   - open: the session acquires the pooled rows buffer
//     (RowCount×N2) and owns it until close/expiry;
//   - cols: the handler reads the header, checks it against the
//     session, and only then acquires a pooled column scratch, which the
//     payload is read into straight from the body and which it owns for
//     the duration of the request; ColStages sweeps each column's planes
//     in place; the worker's own RowCount×ColCount block is scaled and
//     transposed in tiles (FourStepPlan.TransposeScaled) into columns
//     [ColStart, ColStart+ColCount) of the session's rows buffer, and each
//     peer's block is scaled (ScaleFrom) into one pooled complex payload
//     that streams from there to the peer (PostSessionFrame) and is
//     released when the peer has acked it;
//   - exchange: the payload is read from the body into a pooled buffer
//     and transposed in tiles (fft.TransposeBlock) into the sender's
//     columns of the resident rows buffer;
//   - rows: each resident row is packed into the planes of its own
//     vector of a pooled buffer, where its sweeps run
//     (FourStepPlan.RowFrom) and from which the response streams; the
//     handler owns that buffer until the response is written;
//   - close: the rows buffer returns to the pool.
//
// Neither transposition stores an element at a time: a row of the rows
// buffer is N2·16 bytes (16 KiB at 2^20 points), and a store per row
// stride is a new page and the same L1 set on every store.
//
// All rows-buffer access is serialized by the session mutex; the
// colsSeen count under the same mutex is the happens-before edge that
// makes every exchange write visible to the rows phase.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

// DefaultClient is the client of a coordinator or worker configured
// with none: keep-alive connections pooled per worker — session payloads
// are large, so reusing connections matters more than the default
// transport's conservative idle limits — and no global timeout (per-call
// deadlines come from the context).
var DefaultClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

// PostSessionFrame posts f to the /fft/shard endpoint at addr (a base
// URL) through client and reads the reply: the client half of every hop
// of a session — coordinator to worker and worker to peer, over a socket
// or dist.Loopback alike. The request body streams out of f.Data through
// a pipe, under a Content-Length, and PostSessionFrame returns only when
// nothing reads f.Data any more, whatever the transport made of the
// request. A 200's frame is read by ReadSessionReply, its payload
// straight into into; any other status is a *StatusError.
func PostSessionFrame(ctx context.Context, client *http.Client, addr string, f SessionFrame, into []complex128) (SessionFrame, error) {
	if err := CheckSessionFrame(f); err != nil {
		return SessionFrame{}, err
	}
	pr, pw := io.Pipe()
	wrote := make(chan struct{})
	go func() { // the request body: blocks until the transport reads it
		defer close(wrote)
		pw.CloseWithError(WriteSessionFrame(pw, f))
	}()
	defer func() {
		pr.Close()
		<-wrote
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/fft/shard", pr)
	if err != nil {
		return SessionFrame{}, err
	}
	req.ContentLength = int64(SessionFrameLen(f))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return SessionFrame{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SessionFrame{}, NewStatusError(addr, resp.StatusCode, resp.Header.Get(PeerHeader), resp.Body)
	}
	return ReadSessionReply(resp.Body, resp.ContentLength, into)
}

// StatusError is a non-200 answer on /fft/shard: the status, the head
// of the error body, and the peer the worker named (PeerHeader), if any.
type StatusError struct {
	Addr string
	Code int
	Msg  string
	Peer string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("worker %s: status %d: %s", e.Addr, e.Code, e.Msg)
}

// NewStatusError is the StatusError of a reply from addr: it reads at
// most the first 120 bytes of body, for the message, and no more.
func NewStatusError(addr string, code int, peer string, body io.Reader) *StatusError {
	const max = 120
	var b [max + 1]byte
	n, _ := io.ReadFull(body, b[:])
	msg := string(bytes.TrimSpace(b[:min(n, max)]))
	if n > max {
		msg += "…"
	}
	return &StatusError{Addr: addr, Code: code, Msg: msg, Peer: peer}
}

// PeerHeader names, on the 502 a worker answers a cols frame with when
// an exchange push failed, the peer that did not take the push — so the
// coordinator blames the silent peer and not the healthy pusher.
const PeerHeader = "X-Fft-Failed-Peer"

// peerError is a failed exchange push to the peer at addr.
type peerError struct {
	addr string
	err  error
}

func (e *peerError) Error() string { return fmt.Sprintf("exchange to %s: %v", e.addr, e.err) }
func (e *peerError) Unwrap() error { return e.err }

// workerSession is one open resident session. The mutex serializes all
// rows-buffer access; colsSeen counts the columns already folded into
// the buffer (own cols plus received exchanges) and reaching N2 is the
// rows phase's readiness condition.
type workerSession struct {
	id   uint64
	spec SessionSpec
	fs   *fft.FourStepPlan // the session's N1×N2 steps

	mu       sync.Mutex
	rows     *[]complex128 // RowCount×N2, pooled; nil once released
	colsSeen int
	rowsDone bool
}

// release returns the rows buffer to the pool. Idempotent.
func (sess *workerSession) release() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.rows != nil {
		ReleaseComplex(sess.rows)
		sess.rows = nil
	}
}

// lookupSession fetches a session and touches its TTL clock. A session
// idle past the TTL is reaped here rather than returned — expiry does
// not depend on a later open's GC sweep — and the whole table is swept
// opportunistically at most once per quarter-TTL.
func (s *Server) lookupSession(id uint64) *workerSession {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if now.Sub(s.lastSessGC) > s.cfg.sessionTTL/4 {
		s.gcSessionsLocked(now)
	}
	if e, ok := s.sessions[id]; ok {
		if now.Sub(e.lastUsed) > s.cfg.sessionTTL {
			delete(s.sessions, id)
			e.sess.release()
			s.m.sessExpired.Inc()
			return nil
		}
		e.lastUsed = now
		return e.sess
	}
	return nil
}

// sessEntry pairs a session with its TTL clock (touched under sessMu
// so the GC never races the session's own mutex).
type sessEntry struct {
	sess     *workerSession
	lastUsed time.Time
}

// gcSessionsLocked reaps sessions idle past sessionTTL. Caller holds
// sessMu.
func (s *Server) gcSessionsLocked(now time.Time) {
	for id, e := range s.sessions {
		if now.Sub(e.lastUsed) > s.cfg.sessionTTL {
			delete(s.sessions, id)
			e.sess.release()
			s.m.sessExpired.Inc()
		}
	}
	s.lastSessGC = now
}

// handleSession reads one FFS2 frame from body and dispatches it. Only
// the header is read first: it is checked — against the declared
// length, and for cols and exchange against the session it names —
// before any payload is read, and each op then reads its payload
// straight into the buffer it works in. The ops answer through
// WriteSessionFrame and drop its error: a failed write means the client
// went away, and there is nobody left to tell.
func (s *Server) handleSession(ctx context.Context, w http.ResponseWriter, body io.Reader, declared int64) {
	hp := AcquireFrame(SessionHeaderLen)
	defer ReleaseFrame(hp)
	f, err := readSessionHeader(body, declared, *hp)
	if err != nil {
		s.badFrame(w, err)
		return
	}
	// read takes the rest of the frame, its payload into into; false
	// means the frame was refused and answered. With into nil the request
	// must be header-only (a rows request may not carry the vectors its
	// reply does), and one that announces a payload is refused before any
	// of it is read.
	read := func(into []complex128) bool {
		var err error
		if into == nil {
			err = headerOnly(f)
		}
		if err == nil {
			_, err = readSessionPayload(body, &f, declared, into, *hp)
		}
		if err != nil {
			s.badFrame(w, err)
		}
		return err == nil
	}
	switch f.Op {
	case OpSessOpen:
		if read(nil) {
			s.sessOpen(w, f)
		}
	case OpSessCols:
		s.sessCols(ctx, w, f, read)
	case OpSessExchange:
		s.sessExchange(w, f, read)
	case OpSessRows:
		if read(nil) {
			s.sessRows(w, f)
		}
	case OpSessClose:
		if read(nil) {
			s.sessClose(w, f)
		}
	default:
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("op %s is not a request", f.Op), http.StatusBadRequest)
	}
}

// badFrame answers a frame that could not be read with 400: a malformed
// one counts in sess_bad_total, a body that failed to arrive in
// shard_bad_total.
func (s *Server) badFrame(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrBadFrame) {
		s.m.sessBad.Inc()
	} else {
		s.m.shardBad.Inc()
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func (s *Server) sessOpen(w http.ResponseWriter, f SessionFrame) {
	s.m.sessOpens.Inc()
	spec := *f.Spec
	if spec.N1 > s.cfg.MaxN || spec.N2 > s.cfg.MaxN {
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("four-step factors %d×%d exceed served maximum %d", spec.N1, spec.N2, s.cfg.MaxN),
			http.StatusBadRequest)
		return
	}
	fs, err := fft.NewFourStep(spec.N1, spec.N2)
	if err != nil {
		s.m.sessBad.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.sessMu.Lock()
	s.gcSessionsLocked(now)
	if _, ok := s.sessions[f.ID]; ok {
		s.sessMu.Unlock()
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("session %d already open", f.ID), http.StatusConflict)
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		s.m.sessBad.Inc()
		http.Error(w, "session table full", http.StatusTooManyRequests)
		return
	}
	sess := &workerSession{id: f.ID, spec: spec, fs: fs, rows: AcquireComplex(spec.RowCount * spec.N2)}
	s.sessions[f.ID] = &sessEntry{sess: sess, lastUsed: now}
	s.sessMu.Unlock()
	_ = WriteSessionFrame(w, SessionFrame{Op: OpSessAck, Flags: FlagResident, ID: f.ID})
}

func (s *Server) sessClose(w http.ResponseWriter, hdr SessionFrame) {
	s.m.sessCloses.Inc()
	s.sessMu.Lock()
	e, ok := s.sessions[hdr.ID]
	delete(s.sessions, hdr.ID)
	s.sessMu.Unlock()
	if ok {
		e.sess.release()
	}
	// Closing an unknown (or already-closed) session acks anyway:
	// coordinator abort paths close unconditionally.
	_ = WriteSessionFrame(w, SessionFrame{Op: OpSessAck, ID: hdr.ID})
}

func (s *Server) sessCols(ctx context.Context, w http.ResponseWriter, hdr SessionFrame, read func([]complex128) bool) {
	s.m.sessCols.Inc()
	sess := s.lookupSession(hdr.ID)
	if sess == nil {
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("unknown session %d", hdr.ID), http.StatusNotFound)
		return
	}
	spec := sess.spec
	if hdr.VecLen != spec.N1 || hdr.VecCount != spec.ColCount || hdr.Arg0 != spec.ColStart {
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("cols frame %d×%d@%d does not match session slice %d×%d@%d",
			hdr.VecCount, hdr.VecLen, hdr.Arg0, spec.ColCount, spec.N1, spec.ColStart), http.StatusBadRequest)
		return
	}
	// Wire → pooled scratch, no intermediate buffer.
	scratch := AcquireComplex(hdr.VecLen * hdr.VecCount)
	defer ReleaseComplex(scratch)
	if !read(*scratch) {
		return
	}

	if err := s.execSessCols(ctx, sess, *scratch); err != nil {
		var pe *peerError
		if errors.As(err, &pe) && ctx.Err() == nil {
			s.m.internal.Inc()
			w.Header().Set(PeerHeader, pe.addr)
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		s.fail(w, err)
		return
	}
	s.m.shardVecs.Add(int64(hdr.VecCount))
	_ = WriteSessionFrame(w, SessionFrame{Op: OpSessAck, ID: hdr.ID})
}

// ways is how many ways a session step splits its vectors over the
// process's worker pool: Config.Workers, or GOMAXPROCS.
func (s *Server) ways() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// execSessCols runs the column steps on the slab — column v as the
// planes of cols[v·N1:][:N1]: the sweeps in place and the worker's own
// row block scaled out of the planes, behind the isolation boundary;
// then every peer's row block, scaled into its exchange frame and
// pushed.
func (s *Server) execSessCols(ctx context.Context, sess *workerSession, cols []complex128) error {
	spec, fs := sess.spec, sess.fs
	if err := s.isolate(batchKey{n: spec.N1, kind: KindForward}, nil, func() error {
		host.Do(s.ways(), spec.ColCount, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				f := fft.FrameOf(cols[v*spec.N1 : (v+1)*spec.N1])
				fs.ColStages(&f)
			}
		})
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if sess.rows == nil {
			return fmt.Errorf("session %d is closed", sess.id)
		}
		fs.TransposeScaled((*sess.rows)[spec.ColStart:], spec.N2, cols, spec.ColStart, spec.ColCount, spec.RowStart, spec.RowCount)
		sess.colsSeen += spec.ColCount
		return nil
	}); err != nil {
		return err
	}

	// The peer fan-out, in parallel — one goroutine per push because each
	// blocks on the network. Any push failure fails the cols request with
	// the peer's name on it, and the coordinator abandons the attempt.
	var wg sync.WaitGroup
	errs := make([]error, len(spec.Peers))
	for pi, p := range spec.Peers {
		wg.Add(1)
		go func(pi int, p PeerRange) {
			defer wg.Done()
			errs[pi] = s.pushExchange(ctx, sess, p, cols)
		}(pi, p)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// pushExchange scales peer p's block out of the column planes into one
// pooled payload — vector v is bins [p.RowStart, p.RowStart+p.RowCount)
// of column v, scaled by the four-step twiddle (ScaleFrom), behind the
// isolation boundary — and pushes the exchange frame from there.
func (s *Server) pushExchange(ctx context.Context, sess *workerSession, p PeerRange, cols []complex128) error {
	spec := sess.spec
	payload := AcquireComplex(p.RowCount * spec.ColCount)
	defer ReleaseComplex(payload)
	if err := s.isolate(batchKey{n: spec.N1, kind: KindForward}, nil, func() error {
		tw := fft.TwoLevelTwiddles(spec.N1 * spec.N2)
		for v := 0; v < spec.ColCount; v++ {
			f := fft.FrameOf(cols[v*spec.N1 : (v+1)*spec.N1])
			tw.ScaleFrom((*payload)[v*p.RowCount:][:p.RowCount], f.Re[p.RowStart:], f.Im[p.RowStart:], spec.ColStart+v, p.RowStart)
		}
		return nil
	}); err != nil {
		return err
	}
	ack, err := PostSessionFrame(ctx, s.cfg.Client, p.Addr, SessionFrame{
		Op: OpSessExchange, ID: sess.id,
		VecLen: p.RowCount, VecCount: spec.ColCount,
		Arg0: spec.ColStart, Arg1: p.RowStart,
		Data: *payload,
	}, nil)
	if err == nil && ack.Op != OpSessAck {
		err = fmt.Errorf("answered %s, want ack", ack.Op)
	}
	if err != nil {
		return &peerError{p.Addr, err}
	}
	return nil
}

func (s *Server) sessExchange(w http.ResponseWriter, hdr SessionFrame, read func([]complex128) bool) {
	s.m.sessExchanges.Inc()
	sess := s.lookupSession(hdr.ID)
	if sess == nil {
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("unknown session %d", hdr.ID), http.StatusNotFound)
		return
	}
	spec := sess.spec
	if hdr.Arg1 != spec.RowStart || hdr.VecLen != spec.RowCount || hdr.Arg0+hdr.VecCount > spec.N2 {
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("exchange frame %d×%d@%d/%d does not fit session rows [%d,%d)×cols %d",
			hdr.VecCount, hdr.VecLen, hdr.Arg0, hdr.Arg1, spec.RowStart, spec.RowStart+spec.RowCount, spec.N2),
			http.StatusBadRequest)
		return
	}
	buf := AcquireComplex(hdr.VecLen * hdr.VecCount)
	defer ReleaseComplex(buf)
	if !read(*buf) {
		return
	}
	sess.mu.Lock()
	if sess.rows == nil {
		sess.mu.Unlock()
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("session %d is closed", hdr.ID), http.StatusConflict)
		return
	}
	// Vector v, element i is matrix cell (row i, column Arg0+v).
	fft.TransposeBlock((*sess.rows)[hdr.Arg0:], spec.N2, *buf, hdr.VecLen, hdr.VecCount, hdr.VecLen)
	sess.colsSeen += hdr.VecCount
	sess.mu.Unlock()
	_ = WriteSessionFrame(w, SessionFrame{Op: OpSessAck, ID: hdr.ID})
}

func (s *Server) sessRows(w http.ResponseWriter, hdr SessionFrame) {
	s.m.sessRows.Inc()
	sess := s.lookupSession(hdr.ID)
	if sess == nil {
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("unknown session %d", hdr.ID), http.StatusNotFound)
		return
	}
	spec := sess.spec
	// The mutex keeps a concurrent close from releasing the rows buffer
	// while the row steps read it. The reply streams from planes, which
	// only this handler holds, so the mutex is not held through the write.
	sess.mu.Lock()
	refuse := func(msg string) {
		sess.mu.Unlock()
		s.m.sessBad.Inc()
		http.Error(w, msg, http.StatusConflict)
	}
	switch {
	case sess.rows == nil:
		refuse(fmt.Sprintf("session %d is closed", hdr.ID))
		return
	case sess.rowsDone:
		refuse(fmt.Sprintf("session %d rows already fetched", hdr.ID))
		return
	case sess.colsSeen != spec.N2:
		refuse(fmt.Sprintf("session %d has %d of %d columns", hdr.ID, sess.colsSeen, spec.N2))
		return
	}
	// Every resident row is packed into the planes of its own vector of a
	// pooled buffer, where its sweeps run and the response streams from.
	planes := AcquireComplex(spec.RowCount * spec.N2)
	defer ReleaseComplex(planes)
	err := s.isolate(batchKey{n: spec.N2, kind: KindForward}, nil, func() error {
		host.Do(s.ways(), spec.RowCount, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				sess.fs.RowFrom((*planes)[r*spec.N2:(r+1)*spec.N2], (*sess.rows)[r*spec.N2:(r+1)*spec.N2])
			}
		})
		return nil
	})
	sess.rowsDone = err == nil
	sess.mu.Unlock()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.m.shardVecs.Add(int64(spec.RowCount))
	_ = WriteSessionFrame(w, SessionFrame{
		Op: OpSessRows, ID: hdr.ID,
		VecLen: spec.N2, VecCount: spec.RowCount, Arg0: spec.RowStart,
		Data: *planes,
	})
}
