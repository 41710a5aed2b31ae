package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"codeletfft/internal/dist"
	"codeletfft/internal/serve"
)

// TestHandleBinStatus: only a length the cluster cannot transform is
// the client's fault; any other coordinator error is a 500 and does not
// count as a bad request (handleBin used to answer both 400). No length
// the coordinator accepts makes it fail, so that row hands fail the
// error handleBin would.
func TestHandleBinStatus(t *testing.T) {
	lb := dist.NewLoopback()
	lb.Register("http://w0", serve.New(serve.Config{EnableShard: true}).Handler())
	co := dist.New(dist.Config{
		Client:  &http.Client{Transport: lb},
		Workers: []string{"http://w0"},
	})
	defer co.Close()
	s := newServer(co, 0)
	for _, tc := range []struct {
		name    string
		n       int
		lie     int64 // added to the request's Content-Length
		err     error // non-nil: the coordinator's error, answered by fail
		status  int
		wantBad int64
	}{
		{"served", 256, 0, nil, http.StatusOK, 0},
		{"not a power of two", 12, 0, nil, http.StatusBadRequest, 1},
		{"coordinator error", 0, 0, errors.New("dist: worker answered rows with ack"), http.StatusInternalServerError, 1},
		{"length disagrees with count", 256, 16, nil, http.StatusBadRequest, 2},
	} {
		rec := httptest.NewRecorder()
		if tc.err != nil {
			s.fail(context.Background(), rec, tc.err)
		} else {
			enc, err := serve.EncodeFrame(serve.Frame{Kind: serve.KindForward, Complex: make([]complex128, tc.n)})
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/fft/bin", bytes.NewReader(enc))
			req.ContentLength += tc.lie
			s.handleBin(rec, req)
		}
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, bytes.TrimSpace(rec.Body.Bytes()))
		}
		if got := s.bad.Value(); got != tc.wantBad {
			t.Errorf("%s: cluster_bad_total = %d, want %d", tc.name, got, tc.wantBad)
		}
	}
}
