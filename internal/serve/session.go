// Worker half of the resident-shard session protocol (FFS2,
// sessionframe.go). A coordinator opens a session describing the
// four-step geometry and this worker's slice of it, ships the worker's
// column slab once, and fetches the finished row block once; between
// those two transfers the data stays resident here. The communication-
// avoiding step is the transpose: after the column FFTs the worker
// scatters its own rows into the resident rows buffer and pushes every
// peer's row block directly to that peer (PeerSender), so the all-to-all
// that dominates distributed four-step never passes through the
// coordinator.
//
// Buffer ownership per phase:
//
//   - open: the session acquires the pooled rows buffer
//     (RowCount×N2) and owns it until close/expiry;
//   - cols: the handler owns a pooled column scratch for the duration
//     of the request — wire bytes decode straight into it, the FFT and
//     twiddle run in place, the worker's own RowCount×ColCount block is
//     transposed in tiles (fft.TransposeBlock) into columns [ColStart,
//     ColStart+ColCount) of the session's rows buffer, and peer blocks
//     encode straight out of the scratch into pooled exchange frames
//     (released as each push completes);
//   - exchange: the payload is transposed into the sender's columns of
//     the resident rows buffer — the payload codec decodes the wire
//     bytes run by run into the transposition's own tile
//     (scatterExchange), so no intermediate complex buffer exists;
//   - rows: the row FFTs run in place in the rows buffer and the
//     response streams straight out of it;
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
	"strconv"
	"sync"
	"time"

	"codeletfft/internal/fft"
)

// PeerSender delivers an encoded frame to a peer worker's shard
// endpoint and returns the raw response body. The dist Loopback
// transport implements it in-process; HTTPPeers speaks real HTTP.
type PeerSender interface {
	PushFrame(ctx context.Context, addr string, frame []byte) ([]byte, error)
}

// HTTPPeers is the production PeerSender: addr is a peer's base URL,
// frames post to its /fft/shard endpoint over pooled keep-alive
// connections.
type HTTPPeers struct {
	// Client overrides the pooled default; per-call deadlines come from
	// the context.
	Client *http.Client
}

var defaultPeerClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

// PushFrame implements PeerSender.
func (p *HTTPPeers) PushFrame(ctx context.Context, addr string, frame []byte) ([]byte, error) {
	client := p.Client
	if client == nil {
		client = defaultPeerClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/fft/shard", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: peer %s: status %d: %s", addr, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
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
	if now.Sub(s.lastSessGC) > s.cfg.SessionTTL/4 {
		s.gcSessionsLocked(now)
	}
	if e, ok := s.sessions[id]; ok {
		if now.Sub(e.lastUsed) > s.cfg.SessionTTL {
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

// gcSessionsLocked reaps sessions idle past SessionTTL. Caller holds
// sessMu.
func (s *Server) gcSessionsLocked(now time.Time) {
	for id, e := range s.sessions {
		if now.Sub(e.lastUsed) > s.cfg.SessionTTL {
			delete(s.sessions, id)
			e.sess.release()
			s.m.sessExpired.Inc()
		}
	}
	s.lastSessGC = now
}

// handleSession dispatches one FFS2 frame. raw stays valid (and owned
// by the caller) for the duration of the call.
func (s *Server) handleSession(ctx context.Context, w http.ResponseWriter, raw []byte) {
	hdr, err := DecodeSessionHeader(raw)
	if err != nil {
		s.m.sessBad.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch hdr.Op {
	case OpSessOpen:
		s.sessOpen(w, raw)
	case OpSessCols:
		s.sessCols(ctx, w, hdr, raw)
	case OpSessExchange:
		s.sessExchange(w, hdr, raw)
	case OpSessRows:
		s.sessRows(w, hdr)
	case OpSessClose:
		s.sessClose(w, hdr)
	default:
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("op %s is not a request", hdr.Op), http.StatusBadRequest)
	}
}

func (s *Server) sessOpen(w http.ResponseWriter, raw []byte) {
	s.m.sessOpens.Inc()
	f, err := DecodeSessionFrame(raw) // materializes the spec
	if err != nil {
		s.m.sessBad.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec := *f.Spec
	if spec.N1 > s.cfg.MaxN || spec.N2 > s.cfg.MaxN {
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("four-step factors %d×%d exceed served maximum %d", spec.N1, spec.N2, s.cfg.MaxN),
			http.StatusBadRequest)
		return
	}
	if len(spec.Peers) > 0 && s.cfg.Peers == nil {
		s.m.sessBad.Inc()
		http.Error(w, "worker has no peer sender configured", http.StatusBadRequest)
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
	sess := &workerSession{id: f.ID, spec: spec, rows: AcquireComplex(spec.RowCount * spec.N2)}
	s.sessions[f.ID] = &sessEntry{sess: sess, lastUsed: now}
	s.sessMu.Unlock()
	s.writeSessionFrame(w, SessionFrame{Op: OpSessAck, Flags: FlagResident, ID: f.ID})
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
	s.writeSessionFrame(w, SessionFrame{Op: OpSessAck, ID: hdr.ID})
}

func (s *Server) sessCols(ctx context.Context, w http.ResponseWriter, hdr SessionFrame, raw []byte) {
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
	if _, err := DecodeSessionFrameInto(raw, *scratch); err != nil {
		s.m.sessBad.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
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
	s.writeSessionFrame(w, SessionFrame{Op: OpSessAck, ID: hdr.ID})
}

// execSessCols runs the column phase: FFT + twiddle in place in the
// pooled scratch, own rows transposed into the resident buffer, peer
// blocks pushed as exchange frames.
func (s *Server) execSessCols(ctx context.Context, sess *workerSession, cols []complex128) error {
	spec := sess.spec
	batch := splitRows(cols, spec.N1)
	if err := s.run(batchKey{n: spec.N1, kind: KindForward}, batch, nil, func() error {
		return scaleColumns(batch, spec.ColStart, spec.N1*spec.N2)
	}); err != nil {
		return err
	}

	// Own row block: scratch → resident rows buffer.
	sess.mu.Lock()
	if sess.rows == nil {
		sess.mu.Unlock()
		return fmt.Errorf("session %d is closed", sess.id)
	}
	fft.TransposeBlock((*sess.rows)[spec.ColStart:], spec.N2, cols[spec.RowStart:], spec.N1, spec.ColCount, spec.RowCount)
	sess.colsSeen += spec.ColCount
	sess.mu.Unlock()

	// Peer row blocks: scratch → pooled exchange frames → peers, in
	// parallel — the peer fan-out, one goroutine per push because each
	// blocks on the network. Any push failure fails the cols request with the peer's
	// name on it, and the coordinator abandons the attempt.
	if len(spec.Peers) == 0 {
		return nil
	}
	if s.cfg.Peers == nil {
		return fmt.Errorf("session %d names %d peers but the worker has no peer sender", sess.id, len(spec.Peers))
	}
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

// pushExchange encodes peer p's row block straight out of the column
// scratch into a pooled frame and delivers it.
func (s *Server) pushExchange(ctx context.Context, sess *workerSession, p PeerRange, cols []complex128) error {
	spec := sess.spec
	f := SessionFrame{
		Op: OpSessExchange, ID: sess.id,
		VecLen: p.RowCount, VecCount: spec.ColCount,
		Arg0: spec.ColStart, Arg1: p.RowStart,
	}
	size := SessionHeaderLen + 16*p.RowCount*spec.ColCount
	bp := AcquireFrame(size)
	defer ReleaseFrame(bp)
	b := appendSessionHeader((*bp)[:0], f)
	for v := 0; v < spec.ColCount; v++ {
		b = AppendComplexPayload(b, cols[v*spec.N1+p.RowStart:][:p.RowCount])
	}
	resp, err := s.cfg.Peers.PushFrame(ctx, p.Addr, b)
	if err != nil {
		return &peerError{p.Addr, err}
	}
	ack, err := DecodeSessionFrame(resp)
	if err != nil || ack.Op != OpSessAck {
		return &peerError{p.Addr, errors.New("bad ack")}
	}
	return nil
}

func (s *Server) sessExchange(w http.ResponseWriter, hdr SessionFrame, raw []byte) {
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
	payload := raw[SessionHeaderLen:]
	sess.mu.Lock()
	if sess.rows == nil {
		sess.mu.Unlock()
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("session %d is closed", hdr.ID), http.StatusConflict)
		return
	}
	scatterExchange((*sess.rows)[hdr.Arg0:], spec.N2, payload, hdr.VecCount, hdr.VecLen)
	sess.colsSeen += hdr.VecCount
	sess.mu.Unlock()
	s.writeSessionFrame(w, SessionFrame{Op: OpSessAck, ID: hdr.ID})
}

// scatterExchange lands an exchange payload in the window rows of the
// resident rows buffer (leading dimension ld): the payload is vecCount
// vectors of vecLen wire elements, and vector v's element i is matrix
// cell (row i, column v). The payload codec — a copy on a little-endian
// host, the portable loop elsewhere — decodes each 1 KiB run of wire
// bytes straight into the transposition's own tile, so nothing is
// staged in between and the rows buffer is only ever written in runs of
// whole cache lines.
func scatterExchange(rows []complex128, ld int, payload []byte, vecCount, vecLen int) {
	fft.TransposeBlockFrom(rows, ld, vecCount, vecLen, func(run []complex128, v, i int) {
		DecodeComplexPayload(run, payload[16*(v*vecLen+i):])
	})
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
	// The mutex is held through the response write: the rows buffer
	// must not return to the pool while its bytes stream out.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch {
	case sess.rows == nil:
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("session %d is closed", hdr.ID), http.StatusConflict)
		return
	case sess.rowsDone:
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("session %d rows already fetched", hdr.ID), http.StatusConflict)
		return
	case sess.colsSeen != spec.N2:
		s.m.sessBad.Inc()
		http.Error(w, fmt.Sprintf("session %d has %d of %d columns", hdr.ID, sess.colsSeen, spec.N2),
			http.StatusConflict)
		return
	}
	// Every resident row is transformed in place.
	rows := splitRows((*sess.rows)[:spec.RowCount*spec.N2], spec.N2)
	if err := s.run(batchKey{n: spec.N2, kind: KindForward}, rows, nil, nil); err != nil {
		s.fail(w, err)
		return
	}
	sess.rowsDone = true
	s.m.shardVecs.Add(int64(spec.RowCount))
	s.writeSessionFrame(w, SessionFrame{
		Op: OpSessRows, ID: hdr.ID,
		VecLen: spec.N2, VecCount: spec.RowCount, Arg0: spec.RowStart,
		Data: (*sess.rows)[:spec.RowCount*spec.N2],
	})
}

// writeSessionFrame answers with an FFS2 frame: the header, then
// f.Data's wire bytes straight out of the resident buffer, under a
// Content-Length — no contiguous copy of the frame ever exists on the
// worker.
func (s *Server) writeSessionFrame(w http.ResponseWriter, f SessionFrame) {
	hp := AcquireFrame(SessionHeaderLen)
	defer ReleaseFrame(hp)
	hdr := appendSessionHeader((*hp)[:0], f)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(hdr)+16*len(f.Data)))
	if _, err := w.Write(hdr); err == nil {
		_ = writeComplexPayload(w, f.Data) // a failed write means the peer went away
	}
}
