// Worker half of the resident-shard session protocol: the session ops
// of the one frame header (codec.go, sessionframe.go). A coordinator
// opens a session describing the four-step geometry and this worker's
// slice of it, ships the worker's column slab once, and fetches the
// finished row block once; in between the data stays resident here.
// The communication-avoiding step is the transpose: after the column
// FFTs the worker folds its own rows into the resident rows buffer and
// pushes every peer's row block directly to that peer, so the
// all-to-all that dominates distributed four-step never passes through
// the coordinator.
// A push is the coordinator's own hop: PostSessionFrame through the
// worker's Config.Client, which a socket or an in-process
// dist.Loopback carries.
//
// The worker runs steps 2–4 of fft.FourStepPlan (DESIGN §12) on the
// session's plan; the coordinator runs 1 and 5. So the cols payload
// arrives as the worker's columns, each a contiguous N1-element vector
// in natural order (conjugated for an inverse), and the rows reply
// leaves as the transformed rows in natural order.
//
// Every hop moves a payload byte once (WriteSessionFrame on one end;
// here readHeader, then readSession; on the client ReadSessionReply).
// Buffer ownership per phase:
//
//   - open: the session acquires the pooled rows buffer
//     (RowCount×N2) and owns it until the session ends;
//   - cols: the handler reads the header, checks it against the
//     session, and only then acquires a pooled column scratch, which the
//     payload is read into straight from the body and which it owns for
//     the duration of the request; ColFFTs transforms each column in
//     place; the worker's own RowCount×ColCount block is scaled and
//     transposed in tiles (FourStepPlan.TransposeScaled) into columns
//     [ColStart, ColStart+ColCount) of the session's rows buffer, and each
//     peer's bins are copied, unscaled, into one pooled complex payload
//     that streams from there to the peer (PostSessionFrame) and is
//     released when the peer has acked it;
//   - exchange: the payload is read from the body into a pooled buffer
//     and scaled and transposed in tiles (TransposeScaled, as the own
//     block is) into the sender's columns of the resident rows buffer;
//   - rows: the handler takes the rows buffer out of the session and
//     ends it, transforms each row in place (FourStepPlan.RowFFTs) and
//     streams the response from that buffer, which it owns until the
//     response is written and then releases.
//
// A session has one lifecycle: open → cols (and the peers' exchanges)
// → rows, three requests from the coordinator. colsSeen reaching N2
// fires the rows step, and the rows step is the rows buffer's last
// consumer, so it ends the session. Nothing else keeps a session alive:
// endSession — out of the table, timer stopped, rows buffer back in the
// pool — is also called by a cols or exchange step that fails (its
// context ended included), by OpSessClose (the coordinator's abort
// path), and by the session's own idle timer, sessionTTL after its last
// frame, which bounds a session whose coordinator went silent.
//
// No transposition stores an element at a time: a row of the rows
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
	if _, err := f.header(); err != nil {
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

// errSessionEnded is a cols step that found a session ended under it —
// its own, or the peer's it pushed to (a 404). Whatever ended it is
// reported by the request that met the failure, so this step answers
// 409, which names nobody.
var errSessionEnded = errors.New("session ended")

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
// rows step's firing condition.
type workerSession struct {
	id    uint64
	spec  SessionSpec
	fs    *fft.FourStepPlan // the session's N1×N2 steps
	timer *time.Timer       // ends the session sessionTTL after its last lookup

	mu       sync.Mutex
	rows     *[]complex128 // RowCount×N2, pooled; nil once the session ended
	colsSeen int
}

// lookupSession fetches an open session and restarts its idle timer.
func (s *Server) lookupSession(id uint64) *workerSession {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess := s.sessions[id]
	if sess != nil {
		sess.timer.Reset(s.cfg.sessionTTL)
	}
	return sess
}

// endSession ends sess: out of the table, its timer stopped, its rows
// buffer (unless the rows step took it) back in the pool. It is the one
// way a session ends — the rows reply, a close, a failed step and the
// idle timer all call it — and only the first call for a session does
// anything; it reports whether this call was that one.
func (s *Server) endSession(sess *workerSession) bool {
	s.sessMu.Lock()
	live := s.sessions[sess.id] == sess
	if live {
		delete(s.sessions, sess.id)
	}
	s.sessMu.Unlock()
	if !live {
		return false
	}
	sess.timer.Stop()
	sess.mu.Lock()
	ReleaseComplex(sess.rows)
	sess.rows = nil
	sess.mu.Unlock()
	return true
}

// session is lookupSession for a step: a session that is not open
// answers 404 and is nil.
func (s *Server) session(w http.ResponseWriter, id uint64) *workerSession {
	sess := s.lookupSession(id)
	if sess == nil {
		s.unknownSession(w, id)
	}
	return sess
}

// unknownSession answers a frame for a session that is not open — never
// opened, or already ended.
func (s *Server) unknownSession(w http.ResponseWriter, id uint64) {
	s.m.sessBad.Inc()
	http.Error(w, fmt.Sprintf("unknown session %d", id), http.StatusNotFound)
}

// handleSession reads one session frame from body and dispatches it.
// Only the header is read first: it is checked — against the declared
// length, and for cols and exchange against the session it names —
// before any payload is read, and each op then reads its payload
// straight into the buffer it works in. The ops answer through
// WriteSessionFrame and drop its error: a failed write means the client
// went away, and there is nobody left to tell.
func (s *Server) handleSession(ctx context.Context, w http.ResponseWriter, body io.Reader, declared int64) {
	h, err := readHeader(body, declared, false, nil)
	if err != nil {
		s.badFrame(w, err)
		return
	}
	var f SessionFrame
	// read takes the rest of the frame, its payload into into; false
	// means the frame was refused and answered. With into nil the request
	// must be header-only (a rows request may not carry the vectors its
	// reply does), and one that announces a payload is refused before any
	// of it is read.
	read := func(into []complex128) bool {
		if f, err = readSession(body, h, into); err != nil {
			s.badFrame(w, err)
		}
		return err == nil
	}
	switch h.Op {
	case OpSessOpen:
		if read(nil) {
			s.sessOpen(w, f)
		}
	case OpSessCols:
		s.sessCols(ctx, w, h, read)
	case OpSessExchange:
		s.sessExchange(w, h, read)
	case OpSessRows:
		if read(nil) {
			s.sessRows(w, h)
		}
	case OpSessClose:
		if read(nil) {
			s.sessClose(w, h)
		}
	default:
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("op %s is not a request", h.Op), http.StatusBadRequest)
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
	s.sessMu.Lock()
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
	// The timer is armed under sessMu, which endSession takes first, so
	// the timer's own call sees it set.
	sess.timer = time.AfterFunc(s.cfg.sessionTTL, func() {
		if s.endSession(sess) {
			s.m.sessExpired.Inc()
		}
	})
	s.sessions[f.ID] = sess
	s.sessMu.Unlock()
	_ = WriteSessionFrame(w, SessionFrame{Op: OpSessAck, ID: f.ID})
}

// sessClose is the abort path: a coordinator that abandoned an attempt
// ends the session on every worker that still answers. Closing an
// unknown (or already ended) session acks anyway, so an abort may close
// unconditionally.
func (s *Server) sessClose(w http.ResponseWriter, hdr FrameHeader) {
	s.m.sessCloses.Inc()
	if sess := s.lookupSession(hdr.ID); sess != nil {
		s.endSession(sess)
	}
	_ = WriteSessionFrame(w, SessionFrame{Op: OpSessAck, ID: hdr.ID})
}

// sessCols runs the cols step. A frame refused on its header leaves the
// session as it was; once the payload is being read, a step that fails —
// a short body, a panic, a push that did not land, a request whose
// context ended — ends the session, which can no longer complete.
func (s *Server) sessCols(ctx context.Context, w http.ResponseWriter, hdr FrameHeader, read func([]complex128) bool) {
	s.m.sessCols.Inc()
	sess := s.session(w, hdr.ID)
	if sess == nil {
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
		s.endSession(sess)
		return
	}

	if err := s.execSessCols(ctx, sess, *scratch); err != nil {
		s.endSession(sess)
		var pe *peerError
		var se *StatusError
		switch {
		case ctx.Err() != nil:
			s.fail(w, err)
		case errors.Is(err, errSessionEnded) || errors.As(err, &se) && se.Code == http.StatusNotFound:
			s.m.internal.Inc() // a 409 names nobody: see errSessionEnded
			http.Error(w, err.Error(), http.StatusConflict)
		case errors.As(err, &pe):
			s.m.internal.Inc()
			w.Header().Set(PeerHeader, pe.addr)
			http.Error(w, err.Error(), http.StatusBadGateway)
		default:
			s.fail(w, err)
		}
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

// execSessCols runs the column steps on the slab — column v as
// cols[v·N1:][:N1]: the transforms in place and the worker's own row
// block scaled out of the columns, behind the isolation boundary;
// then every peer's bins, copied into its exchange frame and pushed.
func (s *Server) execSessCols(ctx context.Context, sess *workerSession, cols []complex128) error {
	spec, fs := sess.spec, sess.fs
	if err := s.isolate(batchKey{n: spec.N1, kind: KindForward}, nil, func() error {
		host.Do(s.ways(), &fft.Pass{Units: spec.ColCount, Run: func(_ *fft.State, lo, hi int) {
			fs.ColFFTs(cols[lo*spec.N1 : hi*spec.N1])
		}}, nil)
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if sess.rows == nil {
			return fmt.Errorf("session %d: %w during its cols step", sess.id, errSessionEnded)
		}
		fs.TransposeScaled((*sess.rows)[spec.ColStart:], spec.N2, cols[spec.RowStart:], spec.N1, spec.ColStart, spec.ColCount, spec.RowStart, spec.RowCount)
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

// pushExchange copies peer p's bins out of the columns into one pooled
// payload — vector v is bins [p.RowStart, p.RowStart+p.RowCount) of
// column v, unscaled: the peer scales them as it transposes — and
// pushes the exchange frame from there.
func (s *Server) pushExchange(ctx context.Context, sess *workerSession, p PeerRange, cols []complex128) error {
	spec := sess.spec
	payload := AcquireComplex(p.RowCount * spec.ColCount)
	defer ReleaseComplex(payload)
	for v := 0; v < spec.ColCount; v++ {
		copy((*payload)[v*p.RowCount:][:p.RowCount], cols[v*spec.N1+p.RowStart:])
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

// sessExchange folds a peer's block into the rows buffer (step 3, behind
// the isolation boundary); like cols, a payload that fails to arrive, or
// a fold that fails, ends the session.
func (s *Server) sessExchange(w http.ResponseWriter, hdr FrameHeader, read func([]complex128) bool) {
	s.m.sessExchanges.Inc()
	sess := s.session(w, hdr.ID)
	if sess == nil {
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
		s.endSession(sess)
		return
	}
	sess.mu.Lock()
	if sess.rows == nil {
		sess.mu.Unlock()
		s.unknownSession(w, hdr.ID)
		return
	}
	// Vector v holds bins [RowStart, RowStart+RowCount) of column Arg0+v.
	err := s.isolate(batchKey{n: spec.N1, kind: KindForward}, nil, func() error {
		sess.fs.TransposeScaled((*sess.rows)[hdr.Arg0:], spec.N2, *buf, spec.RowCount, hdr.Arg0, hdr.VecCount, spec.RowStart, spec.RowCount)
		sess.colsSeen += hdr.VecCount
		return nil
	})
	sess.mu.Unlock()
	if err != nil {
		s.endSession(sess)
		s.fail(w, err)
		return
	}
	_ = WriteSessionFrame(w, SessionFrame{Op: OpSessAck, ID: hdr.ID})
}

// sessRows runs the rows step once every column has arrived, and ends
// the session: the reply is the rows buffer's last consumer, so the
// handler takes the buffer out of the session first, transforms the rows
// in place and releases it after the reply; a second fetch is an unknown
// session. A fetch before the barrier is refused with 409 and leaves the
// session as it was.
func (s *Server) sessRows(w http.ResponseWriter, hdr FrameHeader) {
	s.m.sessRows.Inc()
	sess := s.session(w, hdr.ID)
	if sess == nil {
		return
	}
	spec := sess.spec
	sess.mu.Lock()
	switch {
	case sess.rows == nil:
		sess.mu.Unlock()
		s.unknownSession(w, hdr.ID)
		return
	case sess.colsSeen != spec.N2:
		sess.mu.Unlock()
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("session %d has %d of %d columns", hdr.ID, sess.colsSeen, spec.N2), http.StatusConflict)
		return
	}
	rows := sess.rows
	sess.rows = nil
	sess.mu.Unlock()
	s.endSession(sess)
	defer ReleaseComplex(rows)
	err := s.isolate(batchKey{n: spec.N2, kind: KindForward}, nil, func() error {
		host.Do(s.ways(), &fft.Pass{Units: spec.RowCount, Run: func(_ *fft.State, lo, hi int) {
			sess.fs.RowFFTs((*rows)[lo*spec.N2 : hi*spec.N2])
		}}, nil)
		return nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	s.m.shardVecs.Add(int64(spec.RowCount))
	_ = WriteSessionFrame(w, SessionFrame{
		Op: OpSessRows, ID: hdr.ID,
		VecLen: spec.N2, VecCount: spec.RowCount, Arg0: spec.RowStart,
		Data: *rows,
	})
}
