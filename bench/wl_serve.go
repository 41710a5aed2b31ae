package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"codeletfft"
	"codeletfft/internal/serve"
)

// serveCycle is one client's fixed request cycle.
var serveCycle = []struct {
	kind serve.Kind
	n    int
}{
	{serve.KindForward, 4096},
	{serve.KindInverse, 16384},
	{serve.KindReal, 65536},
	{serve.KindForward, 49152},
	{serve.KindForward, 131072},
}

const serveClients = 2

var serveStepNames = func() []string {
	names := make([]string, len(serveCycle))
	for i, s := range serveCycle {
		names[i] = fmt.Sprintf("%s_%d", s.kind, s.n)
	}
	return names
}()

// serveClient is one closed-loop caller: its own keep-alive connection
// and buffers. Client c starts its cycle 2·c steps ahead.
type serveClient struct {
	http *http.Client
	body []byte
	recv bytes.Buffer
}

// serveMixed drives the daemon path in process: serve.New with every
// default behind an httptest server on loopback TCP.
type serveMixed struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*serveClient
	reqs    []serve.Frame
	want    []serve.Frame
	// corrupt, when set, damages a reply before it is decoded — the
	// seam the failure-accounting test uses.
	corrupt func(step int, reply []byte)
	// direct sends requests straight into the handler instead of over
	// TCP: the serve.handler_ms_p50 probe.
	direct bool
}

func newServeMixed(string) workload { return &serveMixed{} }

func servePoints() float64 {
	pts := 0.0
	for _, s := range serveCycle {
		pts += float64(s.n)
	}
	return pts
}

func (w *serveMixed) setup(seed uint64) error {
	w.srv = serve.New(serve.Config{})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.clients = w.clients[:0]
	for c := 0; c < serveClients; c++ {
		w.clients = append(w.clients, &serveClient{
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		})
	}
	r := newRNG(seed, 3)
	w.reqs = w.reqs[:0]
	for _, s := range serveCycle {
		f := serve.Frame{Kind: s.kind}
		if s.kind == serve.KindReal {
			f.Real = make([]float64, s.n)
			fillReal(r, f.Real)
		} else {
			f.Complex = randomComplex(r, s.n)
		}
		w.reqs = append(w.reqs, f)
	}
	return nil
}

// prepare computes the expected reply of every request with local
// single-worker plans.
func (w *serveMixed) prepare() error {
	if w.want != nil {
		return nil
	}
	for _, req := range w.reqs {
		out := serve.Frame{Kind: req.Kind}
		switch req.Kind {
		case serve.KindReal:
			rp, err := codeletfft.NewRealPlan(len(req.Real), codeletfft.WithWorkers(1))
			if err != nil {
				return err
			}
			out.Complex = make([]complex128, rp.SpectrumLen())
			if err := rp.Transform(out.Complex, req.Real); err != nil {
				return err
			}
		default:
			p, err := codeletfft.NewHostPlan(len(req.Complex), codeletfft.WithWorkers(1))
			if err != nil {
				return err
			}
			out.Complex = append([]complex128(nil), req.Complex...)
			if req.Kind == serve.KindInverse {
				err = p.Inverse(out.Complex)
			} else {
				err = p.Transform(out.Complex)
			}
			if err != nil {
				return err
			}
		}
		w.want = append(w.want, out)
	}
	return nil
}

func (w *serveMixed) op(x *opCtx) {
	cl := w.clients[x.client]
	for i := range serveCycle {
		step := (i + 2*x.client) % len(serveCycle)
		x.group(serveStepNames[step], catOp, func() {
			x.timed("append_frame", catEncode, func() (err error) {
				cl.body, err = serve.AppendFrame(cl.body[:0], w.reqs[step])
				return err
			})
			x.timed("http_round_trip", catHTTP, func() error { return w.roundTrip(cl) })
			if w.corrupt != nil {
				w.corrupt(step, cl.recv.Bytes())
			}
			var reply serve.Frame
			x.timed("decode_frame", catDecode, func() (err error) {
				reply, err = serve.DecodeFrame(cl.recv.Bytes())
				return err
			})
			x.verified(func() error {
				if reply.Kind != w.want[step].Kind {
					return fmt.Errorf("step %d: reply kind %s, want %s", step, reply.Kind, w.want[step].Kind)
				}
				return closeTo(fmt.Sprintf("step %d reply", step), reply.Complex, w.want[step].Complex)
			})
		})
	}
}

// roundTrip posts the client's encoded frame and reads the whole reply
// into its receive buffer.
func (w *serveMixed) roundTrip(cl *serveClient) error {
	cl.recv.Reset()
	if w.direct {
		rec := httptest.NewRecorder()
		rec.Body = &cl.recv
		req := httptest.NewRequest(http.MethodPost, "/fft/bin", bytes.NewReader(cl.body))
		w.srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler status %d", rec.Code)
		}
		return nil
	}
	resp, err := cl.http.Post(w.ts.URL+"/fft/bin", "application/octet-stream", bytes.NewReader(cl.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := cl.recv.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(cl.recv.Bytes()))
	}
	return nil
}

func (w *serveMixed) close() {
	if w.ts == nil {
		return
	}
	for _, cl := range w.clients {
		cl.http.CloseIdleConnections()
	}
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.srv.Drain(ctx) // nothing is in flight: every client has returned
	w.ts, w.srv = nil, nil
}
