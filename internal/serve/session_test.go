package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// testSpec is a small valid two-worker geometry: this worker owns
// columns [0,4) and rows [0,2) of an 4×8 transform, the peer owns rows
// [2,4).
func testSpec() SessionSpec {
	return SessionSpec{
		N1: 4, N2: 8,
		ColStart: 0, ColCount: 4,
		RowStart: 0, RowCount: 2,
		Peers: []PeerRange{{Addr: "peer-1", RowStart: 2, RowCount: 2}},
	}
}

func TestSessionFrameRoundTrip(t *testing.T) {
	spec := testSpec()
	frames := []SessionFrame{
		{Op: OpSessOpen, ID: 7, Spec: &spec},
		{Op: OpSessCols, ID: 7, VecLen: 4, VecCount: 4, Arg0: 0, Data: randVecs(4, 4, 1)},
		{Op: OpSessExchange, ID: 7, VecLen: 2, VecCount: 4, Arg0: 0, Arg1: 2, Data: randVecs(2, 4, 2)},
		{Op: OpSessRows, ID: 7, VecLen: 8, VecCount: 2, Arg0: 0, Data: randVecs(8, 2, 3)},
		{Op: OpSessRows, ID: 7}, // header-only rows request
		{Op: OpSessClose, ID: 7},
		{Op: OpSessAck, ID: 7, Flags: FlagResident},
	}
	for _, f := range frames {
		enc, err := EncodeSessionFrame(f)
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Op, err)
		}
		if len(enc) != SessionFrameLen(f) {
			t.Fatalf("%s: SessionFrameLen = %d, encoded %d bytes", f.Op, SessionFrameLen(f), len(enc))
		}
		dec, err := DecodeSessionFrame(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Op, err)
		}
		if dec.Op != f.Op || dec.Flags != f.Flags || dec.ID != f.ID ||
			dec.VecLen != f.VecLen || dec.VecCount != f.VecCount || dec.Arg0 != f.Arg0 || dec.Arg1 != f.Arg1 {
			t.Fatalf("%s: header mismatch: %+v", f.Op, dec)
		}
		for i := range f.Data {
			if math.Float64bits(real(dec.Data[i])) != math.Float64bits(real(f.Data[i])) ||
				math.Float64bits(imag(dec.Data[i])) != math.Float64bits(imag(f.Data[i])) {
				t.Fatalf("%s: payload differs at %d", f.Op, i)
			}
		}
		if f.Op == OpSessOpen {
			if dec.Spec == nil || dec.Spec.N1 != spec.N1 || len(dec.Spec.Peers) != 1 || dec.Spec.Peers[0] != spec.Peers[0] {
				t.Fatalf("open: spec mismatch: %+v", dec.Spec)
			}
		}
		re, err := EncodeSessionFrame(dec)
		if err != nil || !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encode is not canonical (err %v)", f.Op, err)
		}

		// Header-only decode validates without materializing the payload.
		hdr, err := DecodeSessionHeader(enc)
		if err != nil {
			t.Fatalf("%s: DecodeSessionHeader: %v", f.Op, err)
		}
		if hdr.Data != nil || hdr.Spec != nil {
			t.Fatalf("%s: header decode materialized a payload", f.Op)
		}

		// Into-decode lands in the caller's buffer with no copy.
		if n := f.VecLen * f.VecCount; n > 0 {
			dst := make([]complex128, n)
			into, err := DecodeSessionFrameInto(enc, dst)
			if err != nil {
				t.Fatalf("%s: DecodeSessionFrameInto: %v", f.Op, err)
			}
			if &into.Data[0] != &dst[0] {
				t.Fatalf("%s: into-decode did not use the caller's buffer", f.Op)
			}
		}
	}
}

func TestSessionFrameRejects(t *testing.T) {
	spec := testSpec()
	good := SessionFrame{Op: OpSessCols, ID: 1, VecLen: 4, VecCount: 4, Data: randVecs(4, 4, 5)}
	enc, err := EncodeSessionFrame(good)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"bad magic":         func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":       func(b []byte) []byte { b[4] = 9; return b },
		"bad op":            func(b []byte) []byte { b[5] = 200; return b },
		"reserved byte":     func(b []byte) []byte { b[7] = 1; return b },
		"truncated payload": func(b []byte) []byte { return b[:len(b)-8] },
		"trailing bytes":    func(b []byte) []byte { return append(b, 0) },
		"truncated header":  func(b []byte) []byte { return b[:12] },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), enc...))
		if _, err := DecodeSessionFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}

	// Destination size mismatch on the into path.
	if _, err := DecodeSessionFrameInto(enc, make([]complex128, 3)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("into with wrong-size dst: err = %v, want ErrBadFrame", err)
	}

	// Encoder-side rejects.
	encCases := []struct {
		name string
		f    SessionFrame
	}{
		{"open without spec", SessionFrame{Op: OpSessOpen}},
		{"non-open with spec", SessionFrame{Op: OpSessClose, Spec: &spec}},
		{"cols without vectors", SessionFrame{Op: OpSessCols}},
		{"cols with arg1", SessionFrame{Op: OpSessCols, VecLen: 2, VecCount: 1, Arg1: 3, Data: randVecs(2, 1, 6)}},
		{"close with payload", SessionFrame{Op: OpSessClose, VecLen: 2, VecCount: 1, Data: randVecs(2, 1, 6)}},
		{"ragged payload", SessionFrame{Op: OpSessCols, VecLen: 4, VecCount: 4, Data: randVecs(4, 3, 6)}},
		{"unknown op", SessionFrame{Op: sessOpCount}},
		{"vecLen without count", SessionFrame{Op: OpSessCols, VecLen: 4}},
	}
	for _, tc := range encCases {
		if _, err := EncodeSessionFrame(tc.f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}

	// Spec invariants: the row blocks must tile [0, N1) exactly.
	specCases := []struct {
		name   string
		mutate func(*SessionSpec)
	}{
		{"overlapping peer", func(s *SessionSpec) { s.Peers[0].RowStart = 1 }},
		{"gap in tiling", func(s *SessionSpec) { s.Peers[0].RowCount = 1 }},
		{"peer outside N1", func(s *SessionSpec) { s.Peers[0].RowStart = 3; s.Peers[0].RowCount = 2 }},
		{"empty peer addr", func(s *SessionSpec) { s.Peers[0].Addr = "" }},
		{"cols outside N2", func(s *SessionSpec) { s.ColCount = 9 }},
		{"tiny factor", func(s *SessionSpec) { s.N1 = 1 }},
	}
	for _, tc := range specCases {
		s := testSpec()
		tc.mutate(&s)
		if err := s.Validate(); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: Validate err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

// TestSessionFrameCodecAllocs guards the zero-copy discipline: the
// steady-state frame path — encode into a pooled buffer, decode into a
// pooled scratch — must not allocate.
func TestSessionFrameCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds drop sync.Pool puts at random")
	}
	const vecLen, vecCount = 64, 16
	f := SessionFrame{Op: OpSessCols, ID: 9, VecLen: vecLen, VecCount: vecCount, Data: randVecs(vecLen, vecCount, 8)}
	enc, err := EncodeSessionFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools outside the measured region.
	bp := AcquireFrame(SessionFrameLen(f))
	cp := AcquireComplex(vecLen * vecCount)
	ReleaseFrame(bp)
	ReleaseComplex(cp)

	allocs := testing.AllocsPerRun(100, func() {
		bp := AcquireFrame(SessionFrameLen(f))
		out, err := AppendSessionFrame((*bp)[:0], f)
		if err != nil {
			t.Fatal(err)
		}
		*bp = out
		cp := AcquireComplex(vecLen * vecCount)
		if _, err := DecodeSessionFrameInto(enc, *cp); err != nil {
			t.Fatal(err)
		}
		ReleaseComplex(cp)
		ReleaseFrame(bp)
	})
	if allocs > 0 {
		t.Errorf("steady-state frame path allocates %.1f times per op, want 0", allocs)
	}
}

// sessPost drives the worker's shard endpoint with one encoded session
// frame and returns the HTTP status and body.
func sessPost(t *testing.T, h http.Handler, f SessionFrame) (int, []byte) {
	t.Helper()
	enc, err := EncodeSessionFrame(f)
	if err != nil {
		t.Fatalf("encode %s: %v", f.Op, err)
	}
	req := httptest.NewRequest(http.MethodPost, "http://worker/fft/shard", bytes.NewReader(enc))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestSessionLifecycle drives a full single-worker session against the
// handler directly: open acks with the resident capability, premature
// rows fetches are refused, cols execute, rows return the finished
// block, and close is idempotent.
func TestSessionLifecycle(t *testing.T) {
	s := New(Config{EnableShard: true})
	h := s.Handler()
	spec := SessionSpec{N1: 4, N2: 8, ColStart: 0, ColCount: 8, RowStart: 0, RowCount: 4}

	code, body := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: 42, Spec: &spec})
	if code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	ack, err := DecodeSessionFrame(body)
	if err != nil || ack.Op != OpSessAck || ack.Flags&FlagResident == 0 || ack.ID != 42 {
		t.Fatalf("open ack = %+v (err %v), want resident ack for session 42", ack, err)
	}

	// A duplicate open of a live session conflicts.
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: 42, Spec: &spec}); code != http.StatusConflict {
		t.Fatalf("duplicate open: status %d, want 409", code)
	}

	// Rows before the columns arrived: the session is not ready.
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 42}); code != http.StatusConflict {
		t.Fatalf("premature rows: status %d, want 409", code)
	}

	code, body = sessPost(t, h, SessionFrame{
		Op: OpSessCols, ID: 42, VecLen: 4, VecCount: 8, Data: randVecs(4, 8, 9),
	})
	if code != http.StatusOK {
		t.Fatalf("cols: status %d: %s", code, body)
	}

	code, body = sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 42})
	if code != http.StatusOK {
		t.Fatalf("rows: status %d: %s", code, body)
	}
	rows, err := DecodeSessionFrame(body)
	if err != nil || rows.Op != OpSessRows || rows.VecLen != 8 || rows.VecCount != 4 {
		t.Fatalf("rows response = %+v (err %v), want 4×8 block", rows, err)
	}

	// A second rows fetch is refused: the block was already handed out.
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 42}); code != http.StatusConflict {
		t.Fatalf("double rows: status %d, want 409", code)
	}

	for i := 0; i < 2; i++ {
		if code, _ := sessPost(t, h, SessionFrame{Op: OpSessClose, ID: 42}); code != http.StatusOK {
			t.Fatalf("close #%d: status %d, want 200 (idempotent)", i, code)
		}
	}

	// Frames against the closed session miss the table.
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 42}); code != http.StatusNotFound {
		t.Fatalf("rows after close: status %d, want 404", code)
	}
}

// TestSessionExpiry checks the worker GC: a session idle past the TTL
// is reaped and later frames 404.
func TestSessionExpiry(t *testing.T) {
	s := New(Config{EnableShard: true, SessionTTL: time.Nanosecond})
	h := s.Handler()
	spec := SessionSpec{N1: 4, N2: 8, ColStart: 0, ColCount: 8, RowStart: 0, RowCount: 4}
	if code, body := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: 5, Spec: &spec}); code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	time.Sleep(time.Millisecond)
	// Any session op triggers the GC sweep; the expired session is gone.
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 5}); code != http.StatusNotFound {
		t.Fatalf("rows after TTL: status %d, want 404", code)
	}
}

// TestSessionTableLimit checks the open-session cap: the table refuses
// session opens beyond MaxSessions with 429.
func TestSessionTableLimit(t *testing.T) {
	s := New(Config{EnableShard: true, MaxSessions: 2})
	h := s.Handler()
	spec := SessionSpec{N1: 4, N2: 8, ColStart: 0, ColCount: 8, RowStart: 0, RowCount: 4}
	for id := uint64(1); id <= 2; id++ {
		if code, body := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: id, Spec: &spec}); code != http.StatusOK {
			t.Fatalf("open %d: status %d: %s", id, code, body)
		}
	}
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: 3, Spec: &spec}); code != http.StatusTooManyRequests {
		t.Fatalf("open past the cap: status %d, want 429", code)
	}
}

// TestSessionPeersRequired: a spec naming peers needs a PeerSender; a
// worker without one must refuse the open rather than stall at the
// exchange phase.
func TestSessionPeersRequired(t *testing.T) {
	s := New(Config{EnableShard: true}) // no Peers configured
	spec := testSpec()
	code, _ := sessPost(t, s.Handler(), SessionFrame{Op: OpSessOpen, ID: 6, Spec: &spec})
	if code != http.StatusBadRequest {
		t.Fatalf("open with peers but no sender: status %d, want 400", code)
	}
}

// failingPeers is a PeerSender no push gets through.
type failingPeers struct{}

func (failingPeers) PushFrame(context.Context, string, []byte) ([]byte, error) {
	return nil, errors.New("connection refused")
}

// TestSessionColsNamesFailedPeer: a worker whose exchange push fails
// answers the cols frame 502 and names the peer that did not take the
// push, so the coordinator can tell the silent peer from the pusher.
func TestSessionColsNamesFailedPeer(t *testing.T) {
	s := New(Config{EnableShard: true, Peers: failingPeers{}})
	spec := testSpec()
	if code, body := sessPost(t, s.Handler(), SessionFrame{Op: OpSessOpen, ID: 8, Spec: &spec}); code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	enc, err := EncodeSessionFrame(SessionFrame{Op: OpSessCols, ID: 8, VecLen: 4, VecCount: 4, Data: randVecs(4, 4, 7)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "http://worker/fft/shard", bytes.NewReader(enc)))
	if rec.Code != http.StatusBadGateway || rec.Header().Get(PeerHeader) != "peer-1" {
		t.Fatalf("cols with a dead peer: status %d, %s = %q; want 502 naming peer-1",
			rec.Code, PeerHeader, rec.Header().Get(PeerHeader))
	}
}

// FuzzSessionFrame pins the FFS2 codec's safety properties: decoding
// arbitrary bytes never panics, and any frame that decodes re-encodes
// to exactly the input bytes (canonical encoding).
func FuzzSessionFrame(f *testing.F) {
	spec := testSpec()
	for _, fr := range []SessionFrame{
		{Op: OpSessOpen, ID: 1, Spec: &spec},
		{Op: OpSessCols, ID: 1, VecLen: 4, VecCount: 2, Data: randVecs(4, 2, 1)},
		{Op: OpSessExchange, ID: 1, VecLen: 2, VecCount: 2, Arg0: 1, Arg1: 2, Data: randVecs(2, 2, 2)},
		{Op: OpSessRows, ID: 1},
		{Op: OpSessAck, ID: 1, Flags: FlagResident},
	} {
		if enc, err := EncodeSessionFrame(fr); err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte(sessMagic))
	f.Add(bytes.Repeat([]byte{0}, sessHeaderLen))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := DecodeSessionFrame(raw)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error does not wrap ErrBadFrame: %v", err)
			}
			return
		}
		re, err := EncodeSessionFrame(dec)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("re-encoding is not canonical:\n in: %x\nout: %x", raw, re)
		}
	})
}
