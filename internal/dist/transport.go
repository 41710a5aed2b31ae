package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"codeletfft/internal/serve"
)

// Transport reaches workers: it opens resident sessions and probes
// health. Implementations must be safe for concurrent use.
type Transport interface {
	// OpenSession opens a resident session on the worker at addr. id is
	// the coordinator-chosen session identifier — one distributed
	// transform opens the SAME id on every participating worker, which is
	// how a worker matches an incoming peer exchange frame to its own
	// session. The Session comes back with an error too whenever the open
	// frame may have reached the worker, for the caller to close.
	OpenSession(ctx context.Context, addr string, spec serve.SessionSpec, id uint64) (Session, error)
	// Health probes the worker's health endpoint; nil means the worker
	// is accepting traffic.
	Health(ctx context.Context, addr string) error
}

// Session is one open resident-shard session on a worker: the column
// slab ships out through it once, the finished row block ships back
// once, and between the two the data stays on the worker. Sessions are
// not safe for concurrent use (the coordinator drives each worker's
// session from one goroutine at a time); Close may be called from any
// goroutine and is idempotent on the worker.
type Session interface {
	// ExecShard posts one session frame and returns the decoded
	// response. When respInto is non-nil and the response carries a
	// payload, it is decoded directly into respInto (which must have
	// exactly the response's element count) — the zero-copy path that
	// lands a worker's row block straight in the coordinator's output
	// slab. ExecShard must not mutate req.Data.
	ExecShard(ctx context.Context, req serve.SessionFrame, respInto []complex128) (serve.SessionFrame, error)
	// CloseSession releases the worker-side session state.
	CloseSession(ctx context.Context) error
}

// HTTPTransport speaks the session protocol over real HTTP: addr is the
// worker's base URL (e.g. "http://10.0.0.7:8080") with the session
// endpoint at /fft/shard and health at /healthz — a `fftserved -worker`
// process.
type HTTPTransport struct {
	// Client is the HTTP client to use; nil means a dedicated client
	// with sane connection pooling and no global timeout (per-call
	// deadlines come from the context).
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return defaultHTTPClient
}

// defaultHTTPClient pools keep-alive connections per worker; session
// payloads are large, so reusing connections matters more than the
// default transport's conservative idle limits.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

// Health implements Transport.
func (t *HTTPTransport) Health(ctx context.Context, addr string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.client().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: worker %s health: status %d", addr, resp.StatusCode)
	}
	return nil
}

// sessionIDs hands out coordinator-unique session IDs, seeded from the
// clock so two coordinator processes opening sessions on one worker
// don't collide at id 1.
var sessionIDs atomic.Uint64

func init() { sessionIDs.Store(uint64(time.Now().UnixNano())) }

func nextSessionID() uint64 { return sessionIDs.Add(1) }

// statusError is a non-200 worker response. peer is the address the
// worker named as the one that failed it (serve.PeerHeader), if any.
type statusError struct {
	addr string
	code int
	msg  string
	peer string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("dist: worker %s: status %d: %s", e.addr, e.code, e.msg)
}

// open sends the open frame through a transport's new session.
func open(ctx context.Context, sess Session, addr string, spec serve.SessionSpec) error {
	ack, err := sess.ExecShard(ctx, serve.SessionFrame{Op: serve.OpSessOpen, Spec: &spec}, nil)
	if err == nil && ack.Op != serve.OpSessAck {
		err = fmt.Errorf("dist: worker %s answered open with %s", addr, ack.Op)
	}
	return err
}

// OpenSession implements Transport.
func (t *HTTPTransport) OpenSession(ctx context.Context, addr string, spec serve.SessionSpec, id uint64) (Session, error) {
	sess := &httpSession{t: t, addr: addr, id: id}
	return sess, open(ctx, sess, addr, spec)
}

type httpSession struct {
	t    *HTTPTransport
	addr string
	id   uint64
}

// ExecShard implements Session over real HTTP: the request encodes
// into a pooled frame, the response reads into a pooled frame, and a
// payload-bearing response decodes straight into respInto.
func (s *httpSession) ExecShard(ctx context.Context, req serve.SessionFrame, respInto []complex128) (serve.SessionFrame, error) {
	req.ID = s.id
	bp := serve.AcquireFrame(serve.SessionFrameLen(req))
	enc, err := serve.AppendSessionFrame((*bp)[:0], req)
	if err != nil {
		serve.ReleaseFrame(bp)
		return serve.SessionFrame{}, err
	}
	*bp = enc
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.addr+"/fft/shard", bytes.NewReader(enc))
	if err != nil {
		serve.ReleaseFrame(bp)
		return serve.SessionFrame{}, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.t.client().Do(hreq)
	if err != nil {
		// The transport may still reference the body on some error
		// paths; let the GC reclaim the buffer rather than risk reuse.
		return serve.SessionFrame{}, err
	}
	defer resp.Body.Close()
	rp, err := serve.ReadBodyPooled(resp.Body, resp.ContentLength)
	serve.ReleaseFrame(bp) // request fully sent once the response arrived
	if err != nil {
		return serve.SessionFrame{}, err
	}
	defer serve.ReleaseFrame(rp)
	raw := *rp
	if resp.StatusCode != http.StatusOK {
		return serve.SessionFrame{}, &statusError{addr: s.addr, code: resp.StatusCode, msg: snippet(raw), peer: resp.Header.Get(serve.PeerHeader)}
	}
	if respInto != nil {
		return serve.DecodeSessionFrameInto(raw, respInto)
	}
	return serve.DecodeSessionFrame(raw)
}

// CloseSession implements Session.
func (s *httpSession) CloseSession(ctx context.Context) error {
	_, err := s.ExecShard(ctx, serve.SessionFrame{Op: serve.OpSessClose}, nil)
	return err
}

func snippet(b []byte) string {
	const max = 120
	s := string(bytes.TrimSpace(b))
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}

// Loopback is an in-process Transport: worker addresses map to HTTP
// handlers (typically serve.Server handlers with the shard endpoint
// enabled) invoked directly, so a whole cluster — coordinator, workers,
// codec, failure handling — runs inside one `go test` process under
// the race detector, with no sockets.
type Loopback struct {
	mu       sync.RWMutex
	handlers map[string]http.Handler

	// SessionFault, when non-nil, runs before every session frame
	// (coordinator→worker ExecShard and worker→worker PushFrame alike);
	// a non-nil return is delivered as the transport error without
	// reaching the worker — mid-session worker death. It may block until
	// ctx, the frame's own context, is done: a stopped worker.
	SessionFault func(ctx context.Context, addr string, op serve.SessionOp) error
	// TruncateFrame, when non-nil, may mangle an encoded session frame
	// before delivery — a partial write on the wire.
	TruncateFrame func(addr string, op serve.SessionOp, frame []byte) []byte
	// TruncateResponse, when non-nil, may mangle a session response
	// before the coordinator decodes it — a short read.
	TruncateResponse func(addr string, op serve.SessionOp, frame []byte) []byte
}

// NewLoopback returns an empty loopback transport.
func NewLoopback() *Loopback {
	return &Loopback{handlers: map[string]http.Handler{}}
}

// Register maps a worker address to its handler.
func (l *Loopback) Register(addr string, h http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers[addr] = h
}

// Deregister removes a worker, simulating a vanished process: further
// calls to it fail like a refused dial.
func (l *Loopback) Deregister(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.handlers, addr)
}

func (l *Loopback) handler(addr string) (http.Handler, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	h, ok := l.handlers[addr]
	if !ok {
		return nil, fmt.Errorf("dist: loopback worker %s: connection refused", addr)
	}
	return h, nil
}

// OpenSession implements Transport.
func (l *Loopback) OpenSession(ctx context.Context, addr string, spec serve.SessionSpec, id uint64) (Session, error) {
	sess := &loopbackSession{l: l, addr: addr, id: id}
	return sess, open(ctx, sess, addr, spec)
}

type loopbackSession struct {
	l    *Loopback
	addr string
	id   uint64
}

// ExecShard implements Session in-process, applying the loopback's
// session fault hooks on the way through. Like httpSession it encodes
// the request into a pooled frame and collects the response in one —
// sized for what the op returns, a header or the rows respInto takes —
// both released once the response is decoded.
func (s *loopbackSession) ExecShard(ctx context.Context, req serve.SessionFrame, respInto []complex128) (serve.SessionFrame, error) {
	req.ID = s.id
	if f := s.l.SessionFault; f != nil {
		if err := f(ctx, s.addr, req.Op); err != nil {
			return serve.SessionFrame{}, err
		}
	}
	h, err := s.l.handler(s.addr)
	if err != nil {
		return serve.SessionFrame{}, err
	}
	bp := serve.AcquireFrame(serve.SessionFrameLen(req))
	defer serve.ReleaseFrame(bp)
	enc, err := serve.AppendSessionFrame((*bp)[:0], req)
	if err != nil {
		return serve.SessionFrame{}, err
	}
	if tr := s.l.TruncateFrame; tr != nil {
		enc = tr(s.addr, req.Op, enc)
	}
	hreq := httptest.NewRequest(http.MethodPost, "http://"+s.addr+"/fft/shard", bytes.NewReader(enc)).WithContext(ctx)
	hreq.Header.Set("Content-Type", "application/octet-stream")
	rp := serve.AcquireFrame(serve.SessionHeaderLen + 16*len(respInto))
	defer serve.ReleaseFrame(rp)
	rec := httptest.NewRecorder()
	rec.Body = bytes.NewBuffer((*rp)[:0])
	h.ServeHTTP(rec, hreq)
	if err := ctx.Err(); err != nil {
		return serve.SessionFrame{}, err
	}
	if rec.Code != http.StatusOK {
		return serve.SessionFrame{}, &statusError{addr: s.addr, code: rec.Code, msg: snippet(rec.Body.Bytes()), peer: rec.Header().Get(serve.PeerHeader)}
	}
	raw := rec.Body.Bytes()
	if tr := s.l.TruncateResponse; tr != nil {
		raw = tr(s.addr, req.Op, raw)
	}
	if respInto != nil {
		return serve.DecodeSessionFrameInto(raw, respInto)
	}
	return serve.DecodeSessionFrame(raw)
}

// CloseSession implements Session.
func (s *loopbackSession) CloseSession(ctx context.Context) error {
	_, err := s.ExecShard(ctx, serve.SessionFrame{Op: serve.OpSessClose}, nil)
	return err
}

// PushFrame implements serve.PeerSender, carrying worker→worker
// exchange frames through the same in-process fabric (and the same
// fault hooks) so the whole resident protocol runs under -race in one
// process.
func (l *Loopback) PushFrame(ctx context.Context, addr string, frame []byte) ([]byte, error) {
	op := serve.OpSessExchange
	if f := l.SessionFault; f != nil {
		if err := f(ctx, addr, op); err != nil {
			return nil, err
		}
	}
	if tr := l.TruncateFrame; tr != nil {
		frame = tr(addr, op, frame)
	}
	h, err := l.handler(addr)
	if err != nil {
		return nil, err
	}
	hreq := httptest.NewRequest(http.MethodPost, "http://"+addr+"/fft/shard", bytes.NewReader(frame)).WithContext(ctx)
	hreq.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hreq)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("dist: loopback peer %s: status %d: %s", addr, rec.Code, snippet(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// Health implements Transport.
func (l *Loopback) Health(ctx context.Context, addr string) error {
	h, err := l.handler(addr)
	if err != nil {
		return err
	}
	hreq := httptest.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hreq)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("dist: worker %s health: status %d", addr, rec.Code)
	}
	return nil
}
