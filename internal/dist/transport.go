// There is one way to reach a worker: serve.PostSessionFrame posts a
// session frame through an *http.Client and reads the reply —
// serve.ReadSessionReply for a 200, serve.NewStatusError for any other
// status. The coordinator's RPCs, a worker's exchange pushes to its
// peers and the health probes all go through it. Against real daemons
// the client's transport is a socket; Loopback is an http.RoundTripper
// that hands the same request to an in-process handler instead, so a
// cluster in one process runs the production client end to end.
//
// Each payload byte is copied once per hop: the sender's
// serve.WriteSessionFrame streams the 40-byte frame header /fft/bin
// shares, then the transform buffer's own bytes, into the request body,
// and the receiver reads them straight into the buffer the next step
// works in — a worker's column scratch (its handler judges the header
// against the session first), the coordinator's rows buffer
// (serve.ReadSessionReply). PostSessionFrame returns only once nothing
// reads the request's buffer any more, so the caller may release it, and
// with no pooled buffer of the hop left out.
package dist

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"codeletfft/internal/serve"
)

// Loopback is an http.RoundTripper that delivers each request to the
// in-process handler registered for its base URL ("http://loopback-0") —
// typically a serve.Server handler with the shard endpoint on — so a
// whole cluster (coordinator, workers, codec, failure handling) runs
// inside one `go test` process under the race detector, with no sockets.
// Plug it into a client: &http.Client{Transport: lb}.
//
// A hop keeps the wire's mechanics: the handler runs on a goroutine of
// its own, the request body streams to it through the caller's pipe and
// its answer streams back through another, and the response's Body.Close
// waits for the handler to return.
type Loopback struct {
	mu       sync.RWMutex
	handlers map[string]http.Handler

	// SessionFault, when non-nil, runs before every session frame
	// (coordinator requests and worker→worker exchange pushes alike) with
	// the worker's base URL and the frame's op; a non-nil return is the
	// round trip's error and the frame never reaches the worker —
	// mid-session worker death. It may block until ctx, the request's own
	// context, is done: a stopped worker.
	SessionFault func(ctx context.Context, addr string, op serve.SessionOp) error
	// TruncateFrame, when non-nil, wraps the body a worker reads a
	// session frame from: an io.LimitReader is a partial write on the wire.
	TruncateFrame func(addr string, op serve.SessionOp, body io.Reader) io.Reader
	// TruncateResponse, when non-nil, wraps the body a session frame's
	// reply is read from: an io.LimitReader is a short read.
	TruncateResponse func(addr string, op serve.SessionOp, body io.Reader) io.Reader
}

var _ http.RoundTripper = (*Loopback)(nil)

// NewLoopback returns a loopback transport with no workers.
func NewLoopback() *Loopback {
	return &Loopback{handlers: map[string]http.Handler{}}
}

// Register maps a worker's base URL to its handler.
func (l *Loopback) Register(addr string, h http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers[addr] = h
}

// RoundTrip implements http.RoundTripper. When a fault hook is set, a
// session frame's op is read from the header at the head of its body —
// the bytes the handler reads next — and keys the hooks; a hop with no
// hook set passes the body on unread. The request body is closed once
// the handler has returned, or at once when the frame never reaches it.
func (l *Loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, addr := req.Context(), req.URL.Scheme+"://"+req.URL.Host
	refuse := func(err error) (*http.Response, error) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	body, op, session := io.Reader(req.Body), serve.SessionOp(0), false
	if body != nil && (l.SessionFault != nil || l.TruncateFrame != nil || l.TruncateResponse != nil) {
		op, body, session = serve.PeekSessionOp(body)
	}
	if session {
		if f := l.SessionFault; f != nil {
			if err := f(ctx, addr, op); err != nil {
				return refuse(err)
			}
		}
		if tr := l.TruncateFrame; tr != nil {
			body = tr(addr, op, body)
		}
	}
	l.mu.RLock()
	h, ok := l.handlers[addr]
	l.mu.RUnlock()
	if !ok {
		return refuse(fmt.Errorf("dist: loopback worker %s: connection refused", addr))
	}

	// The handler gets the request a server would read off the wire: the
	// same method, URL, header and length, with the body as it streams.
	hreq := req.WithContext(ctx)
	hreq.RequestURI, hreq.Body = req.URL.RequestURI(), http.NoBody
	if body != nil {
		hreq.Body = io.NopCloser(body)
	}
	respR, respW := io.Pipe()
	rw := &pipeResponse{header: http.Header{}, committed: make(chan struct{}), body: respW}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rw, hreq)
		rw.WriteHeader(http.StatusOK) // an empty answer commits a bare 200
		if req.Body != nil {
			req.Body.Close() // the handler reads no more of the request
		}
		respW.Close()
	}()

	<-rw.committed
	if err := ctx.Err(); err != nil { // the caller gave up while the handler ran
		respR.Close()
		<-done
		return nil, err
	}
	var rb io.Reader = respR
	if tr := l.TruncateResponse; tr != nil && session {
		rb = tr(addr, op, rb)
	}
	return &http.Response{
		StatusCode:    rw.code,
		Header:        rw.sent,
		ContentLength: rw.declared,
		Body:          &pipeBody{Reader: rb, pipe: respR, done: done},
		Request:       req,
	}, nil
}

// pipeBody is a loopback response body. Close ends the handler's writes
// and returns once the handler has returned, so every pooled buffer of
// the hop is back when the caller is done with the reply.
type pipeBody struct {
	io.Reader
	pipe *io.PipeReader
	done chan struct{}
}

func (b *pipeBody) Close() error {
	b.pipe.Close()
	<-b.done
	return nil
}

// pipeResponse is the http.ResponseWriter a loopback handler answers
// through. The status and the headers are published once, when the
// first byte or the handler's return commits them; the body streams
// through a pipe.
type pipeResponse struct {
	header    http.Header
	committed chan struct{} // closed once code, sent and declared are final
	code      int
	sent      http.Header // the header as committed
	declared  int64       // Content-Length, −1 when none was set
	body      *io.PipeWriter
}

func (p *pipeResponse) Header() http.Header { return p.header }

func (p *pipeResponse) WriteHeader(code int) {
	if p.code != 0 {
		return
	}
	p.code, p.sent, p.declared = code, p.header.Clone(), -1
	if n, err := strconv.ParseInt(p.header.Get("Content-Length"), 10, 64); err == nil {
		p.declared = n
	}
	close(p.committed)
}

func (p *pipeResponse) Write(b []byte) (int, error) {
	p.WriteHeader(http.StatusOK)
	return p.body.Write(b)
}
