package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"codeletfft/internal/dist"
	"codeletfft/internal/serve"
)

// TestHandleBinStatus: only a length the cluster cannot transform is
// the client's fault; any other coordinator error is a 500 and does not
// count as a bad request (handleBin used to answer both 400).
func TestHandleBinStatus(t *testing.T) {
	lb := dist.NewLoopback()
	lb.Register("http://w0", serve.New(serve.Config{EnableShard: true}).Handler())
	co := dist.New(dist.Config{
		Client:  &http.Client{Transport: lb},
		Workers: []string{"http://w0"},
		// A split that does not cover N: the coordinator's own fault.
		Factor: func(n int) (int, int) {
			if n == 64 {
				return 4, 4
			}
			return dist.NearSquareFactor(n)
		},
	})
	defer co.Close()
	s := newServer(co, 0)
	for _, tc := range []struct {
		name    string
		n       int
		lie     int64 // added to the request's Content-Length
		status  int
		wantBad int64
	}{
		{"served", 256, 0, http.StatusOK, 0},
		{"not a power of two", 12, 0, http.StatusBadRequest, 1},
		{"coordinator error", 64, 0, http.StatusInternalServerError, 1},
		{"length disagrees with count", 256, 16, http.StatusBadRequest, 2},
	} {
		enc, err := serve.EncodeFrame(serve.Frame{Kind: serve.KindForward, Complex: make([]complex128, tc.n)})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/fft/bin", bytes.NewReader(enc))
		req.ContentLength += tc.lie
		s.handleBin(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, bytes.TrimSpace(rec.Body.Bytes()))
		}
		if got := s.bad.Value(); got != tc.wantBad {
			t.Errorf("%s: cluster_bad_total = %d, want %d", tc.name, got, tc.wantBad)
		}
	}
}
