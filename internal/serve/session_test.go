package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"codeletfft/internal/fft"
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

// newSessionServer is a worker for a session test: the test must leave
// no session open and no pooled buffer out — every session it opens
// ends through the lifecycle under test.
func newSessionServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	_, complexes0 := PoolsOutstanding()
	cfg.EnableShard = true
	s := New(cfg)
	t.Cleanup(func() {
		if open := metric(t, s, "sess_open"); open != 0 {
			t.Errorf("%v sessions left open", open)
		}
		if _, complexes := PoolsOutstanding(); complexes != complexes0 {
			t.Errorf("%d complex buffers left out", complexes-complexes0)
		}
	})
	return s
}

// metric reads one of s's instruments, failing t when s has none of
// that name (a missing gauge must not read as 0).
func metric(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	v, ok := s.Registry().Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not in the worker's registry", name)
	}
	return v
}

// readFrame reads one frame off body the way a worker's handleSession
// does — readHeader, then readSession — its payload into a buffer the
// header sizes, but never past room elements: no frame that fits in
// room·16 bytes announces more, and one that announces more is refused
// for the destination's length instead.
func readFrame(body io.Reader, declared int64, room int) (SessionFrame, error) {
	h, err := readHeader(body, declared, false, nil)
	if err != nil {
		return SessionFrame{}, err
	}
	var into []complex128
	if n := h.VecLen * h.VecCount; n > 0 {
		into = make([]complex128, min(n, room))
	}
	return readSession(body, h, into)
}

// TestPeekSessionOp: the peek names a session frame's op and hands back
// every byte it read, however the body arrives; a body that does not
// start like a session frame is passed on whole and not named.
func TestPeekSessionOp(t *testing.T) {
	enc, err := EncodeSessionFrame(SessionFrame{Op: OpSessCols, ID: 3, VecLen: 4, VecCount: 2, Data: randVecs(4, 2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		wantOK bool
	}{
		{"session frame", enc, true},
		{"shorter than the op", enc[:5], false},
		{"another magic", append([]byte("FFS2"), enc[4:]...), false},
		{"a transform", append(enc[:5:5], byte(KindForward)), false},
	} {
		op, whole, ok := PeekSessionOp(iotest.OneByteReader(bytes.NewReader(tc.body)))
		if ok != tc.wantOK || (ok && op != OpSessCols) {
			t.Errorf("%s: op %s, ok %v; want ok %v", tc.name, op, ok, tc.wantOK)
		}
		if got, err := io.ReadAll(whole); err != nil || !bytes.Equal(got, tc.body) {
			t.Errorf("%s: the body read back differs (err %v)", tc.name, err)
		}
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
		{Op: OpSessAck, ID: 7},
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
		if dec.Op != f.Op || dec.ID != f.ID ||
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

		// The wire path writes the encoder's bytes and reads the decoder's
		// frame, the worker's way and the client's.
		var wire bytes.Buffer
		if err := WriteSessionFrame(&wire, f); err != nil || !bytes.Equal(wire.Bytes(), enc) {
			t.Fatalf("%s: WriteSessionFrame differs from the encoder (err %v)", f.Op, err)
		}
		got, err := readFrame(bytes.NewReader(enc), int64(len(enc)), len(f.Data))
		if err != nil {
			t.Fatalf("%s: the worker's read: %v", f.Op, err)
		}
		if re, err := EncodeSessionFrame(got); err != nil || !bytes.Equal(re, enc) {
			t.Fatalf("%s: the worker's read re-encodes differently (err %v)", f.Op, err)
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
			read, err := ReadSessionReply(bytes.NewReader(enc), -1, dst)
			if err != nil || &read.Data[0] != &dst[0] {
				t.Fatalf("%s: ReadSessionReply did not read into the caller's buffer (err %v)", f.Op, err)
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
		"FFS2 magic":        func(b []byte) []byte { copy(b, "FFS2"); return b },
		"real payload":      func(b []byte) []byte { b[6] = elemReal; return b },
		"bad op":            func(b []byte) []byte { b[5] = 200; return b },
		"transform op":      func(b []byte) []byte { b[5] = byte(KindInverse); return b },
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
		{"unknown op", SessionFrame{Op: opCount}},
		{"transform op", SessionFrame{Op: KindForward, VecLen: 2, VecCount: 1, Data: randVecs(2, 1, 6)}},
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
		{"factor not a power of two", func(s *SessionSpec) { s.N2 = 12; s.ColCount = 12 }},
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
// pooled scratch, and the wire's write of a cols frame and read of it
// into a pooled scratch — must not allocate.
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
	hp := AcquireFrame(SessionHeaderLen)
	ReleaseFrame(bp)
	ReleaseComplex(cp)
	ReleaseFrame(hp)
	var wire bytes.Buffer
	wire.Grow(len(enc))
	body := bytes.NewReader(enc)

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
		wire.Reset()
		if err := WriteSessionFrame(&wire, f); err != nil {
			t.Fatal(err)
		}
		body.Reset(wire.Bytes())
		if _, err := ReadSessionReply(body, int64(wire.Len()), *cp); err != nil {
			t.Fatal(err)
		}
		ReleaseComplex(cp)
		ReleaseFrame(bp)
	})
	if allocs > 0 {
		t.Errorf("steady-state frame path allocates %.1f times per op, want 0", allocs)
	}
}

// TestSessionWirePortable runs the session wire both ways through the
// portable codec — the path a big-endian host takes — and holds it to
// the copy: WriteSessionFrame's bytes are the encoder's, and the
// payload the worker's read and ReadSessionReply land is the frame's,
// bit for bit, on the awkward values and over more than one chunk of a
// chunked write.
func TestSessionWirePortable(t *testing.T) {
	data := randVecs(64, 3*writeChunkBytes/16/64, 12)
	for i, v := range awkward {
		data[i] = complex(v, awkward[len(awkward)-1-i])
	}
	spec := testSpec()
	frames := []SessionFrame{
		{Op: OpSessCols, ID: 3, VecLen: 64, VecCount: len(data) / 64, Data: data},
		{Op: OpSessExchange, ID: 3, VecLen: 2, VecCount: 7, Arg0: 1, Arg1: 2, Data: data[:14]},
		{Op: OpSessOpen, ID: 3, Spec: &spec},
		{Op: OpSessAck, ID: 3},
	}
	want := make([][]byte, len(frames))
	for i, f := range frames {
		var err error
		if want[i], err = EncodeSessionFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	defer func(wire bool) { hostIsWire = wire }(hostIsWire)
	for _, portable := range []bool{false, true} {
		hostIsWire = !portable
		for i, f := range frames {
			var wire bytes.Buffer
			if err := WriteSessionFrame(&wire, f); err != nil || !bytes.Equal(wire.Bytes(), want[i]) {
				t.Errorf("portable=%v %s: written bytes differ from the copy's (err %v)", portable, f.Op, err)
			}
			body := func() io.Reader { return iotest.HalfReader(bytes.NewReader(want[i])) }
			worker, err := readFrame(body(), int64(len(want[i])), len(f.Data))
			if err != nil {
				t.Fatalf("portable=%v %s: the worker's read: %v", portable, f.Op, err)
			}
			client, err := ReadSessionReply(body(), int64(len(want[i])), make([]complex128, len(f.Data)))
			if err != nil {
				t.Fatalf("portable=%v %s: ReadSessionReply: %v", portable, f.Op, err)
			}
			for who, got := range map[string]SessionFrame{"worker": worker, "client": client} {
				if !bytes.Equal(fft.ComplexBytes(got.Data), fft.ComplexBytes(f.Data)) {
					t.Errorf("portable=%v %s, the %s's read: payload differs from the frame's", portable, f.Op, who)
				}
			}
		}
	}
}

// TestPeerReplyIsBounded: a peer whose 200 carries a 64 MiB body is
// refused on the reply's first bytes — garbage, an ack with more behind
// it (declared or chunked), or a header announcing a payload nobody asked
// for — and none of the body is buffered.
func TestPeerReplyIsBounded(t *testing.T) {
	junk := make([]byte, 64<<20)
	ack := appendHeader(nil, FrameHeader{Op: OpSessAck, ID: 1})
	claim := appendHeader(nil, FrameHeader{Op: OpSessRows, ID: 1, VecLen: 1 << 11, VecCount: 1 << 11})
	push := SessionFrame{Op: OpSessExchange, ID: 1, VecLen: 4, VecCount: 4, Data: randVecs(4, 4, 3)}
	frames0, complexes0 := PoolsOutstanding()
	for _, tc := range []struct {
		name     string
		head     []byte
		declared bool
	}{
		{"garbage", nil, true},
		{"ack then more, declared", ack, true},
		{"ack then more, chunked", ack, false},
		{"a 64 MiB payload announced", claim, true},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			if tc.declared {
				w.Header().Set("Content-Length", strconv.Itoa(len(tc.head)+len(junk)))
			}
			_, _ = w.Write(tc.head)
			_, _ = w.Write(junk) // fails once the client hangs up
		}))
		var err error
		alloc := allocatedBy(func() { _, err = PostSessionFrame(context.Background(), DefaultClient, ts.URL, push, nil) })
		ts.Close()
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: PostSessionFrame error = %v, want ErrBadFrame", tc.name, err)
		}
		if alloc > 4<<20 {
			t.Errorf("%s: the refused reply cost %d bytes of memory", tc.name, alloc)
		}
	}
	if frames, complexes := PoolsOutstanding(); frames != frames0 || complexes != complexes0 {
		t.Errorf("pools out of balance: %d frames, %d complex buffers", frames-frames0, complexes-complexes0)
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
// handler directly: open acks, premature rows fetches are refused, cols
// execute, and rows return the finished block and end the session — a
// second fetch is an unknown session, and close acks anyway.
func TestSessionLifecycle(t *testing.T) {
	s := newSessionServer(t, Config{})
	h := s.Handler()
	spec := SessionSpec{N1: 4, N2: 8, ColStart: 0, ColCount: 8, RowStart: 0, RowCount: 4}

	code, body := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: 42, Spec: &spec})
	if code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	ack, err := DecodeSessionFrame(body)
	if err != nil || ack.Op != OpSessAck || ack.ID != 42 {
		t.Fatalf("open ack = %+v (err %v), want an ack for session 42", ack, err)
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
	if open := metric(t, s, "sess_open"); open != 0 {
		t.Fatalf("sess_open = %v after the rows reply, want 0: the reply ends the session", open)
	}

	// A second rows fetch finds no session: the reply ended it.
	if code, body := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 42}); code != http.StatusNotFound || !bytes.Contains(body, []byte("unknown session")) {
		t.Fatalf("double rows: status %d (%s), want 404 unknown session", code, body)
	}

	// Closing the ended session acks anyway: an abort closes
	// unconditionally.
	for i := 0; i < 2; i++ {
		if code, _ := sessPost(t, h, SessionFrame{Op: OpSessClose, ID: 42}); code != http.StatusOK {
			t.Fatalf("close #%d: status %d, want 200 (idempotent)", i, code)
		}
	}
	if got := metric(t, s, "sess_expired_total"); got != 0 {
		t.Errorf("sess_expired_total = %v, want 0", got)
	}
}

// TestSessionRowsRequestIsHeaderOnly: a rows request that carries
// vectors, as its reply does, is refused with 400 on its header — no
// buffer is taken for the payload — and the session still answers the
// header-only fetch that follows.
func TestSessionRowsRequestIsHeaderOnly(t *testing.T) {
	s := newSessionServer(t, Config{})
	h := s.Handler()
	spec := SessionSpec{N1: 4, N2: 8, ColStart: 0, ColCount: 8, RowStart: 0, RowCount: 4}
	if code, body := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: 7, Spec: &spec}); code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	if code, body := sessPost(t, h, SessionFrame{Op: OpSessCols, ID: 7, VecLen: 4, VecCount: 8, Data: randVecs(4, 8, 9)}); code != http.StatusOK {
		t.Fatalf("cols: status %d: %s", code, body)
	}
	frames0, complexes0 := PoolsOutstanding()
	bad0 := s.m.sessBad.Value()
	code, body := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 7, VecLen: 8, VecCount: 4, Data: randVecs(8, 4, 3)})
	if code != http.StatusBadRequest {
		t.Fatalf("rows request with a payload: status %d, want 400: %s", code, body)
	}
	if got := s.m.sessBad.Value() - bad0; got != 1 {
		t.Errorf("sess_bad_total rose by %d, want 1", got)
	}
	if frames, complexes := PoolsOutstanding(); frames != frames0 || complexes != complexes0 {
		t.Errorf("pools out of balance: %d frames, %d complex buffers", frames-frames0, complexes-complexes0)
	}
	if code, body := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 7}); code != http.StatusOK {
		t.Fatalf("rows after the refused request: status %d: %s", code, body)
	}
}

// TestSessionExpiry checks the idle timer: a session that gets no
// further frame ends sessionTTL after its last one, with nothing else
// arriving to sweep it — its rows buffer back in the pool, counted in
// sess_expired_total — while every frame restarts the timer of a
// session still in use.
func TestSessionExpiry(t *testing.T) {
	const ttl = 200 * time.Millisecond
	s := newSessionServer(t, Config{sessionTTL: ttl})
	h := s.Handler()
	spec := SessionSpec{N1: 4, N2: 8, ColStart: 0, ColCount: 8, RowStart: 0, RowCount: 4}
	_, complexes0 := PoolsOutstanding()
	if code, body := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: 5, Spec: &spec}); code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	if _, complexes := PoolsOutstanding(); complexes != complexes0+1 {
		t.Fatalf("an open session holds %d complex buffers, want its rows buffer", complexes-complexes0)
	}
	// Frames ttl/4 apart keep it open past its first deadline: each
	// (a premature rows fetch, refused with 409) restarts the timer.
	for i := 0; i < 6; i++ {
		time.Sleep(ttl / 4)
		if code, _ := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 5}); code != http.StatusConflict {
			t.Fatalf("rows %v in: status %d, want 409 from a session still open", time.Duration(i+1)*ttl/4, code)
		}
	}
	// Then silence: nothing but the session's own timer can end it.
	waitFor(t, "the idle timer", func() bool { return metric(t, s, "sess_expired_total") == 1 })
	if open := metric(t, s, "sess_open"); open != 0 {
		t.Errorf("sess_open = %v after expiry, want 0", open)
	}
	if _, complexes := PoolsOutstanding(); complexes != complexes0 {
		t.Errorf("%d complex buffers out after expiry, want the rows buffer back", complexes-complexes0)
	}
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 5}); code != http.StatusNotFound {
		t.Fatalf("rows after expiry: status %d, want 404", code)
	}
}

// TestSessionTimerRacesSteps: with an idle timer shorter than a step,
// timers end sessions under the handlers' feet, concurrently with steps,
// rows replies and closes of other sessions. Every frame is answered —
// 200, or 404 for a session that ended first and 409 for one that ended
// mid-step —
// every session ends exactly once (-race sees a double release as a
// race), and no buffer is left out (newSessionServer's cleanup).
func TestSessionTimerRacesSteps(t *testing.T) {
	const goroutines, sessions = 8, 100
	s := newSessionServer(t, Config{sessionTTL: 50 * time.Microsecond, MaxSessions: goroutines * sessions})
	h := s.Handler()
	spec := SessionSpec{N1: 4, N2: 8, ColStart: 0, ColCount: 8, RowStart: 0, RowCount: 4}
	cols := randVecs(4, 8, 9)
	post := func(f SessionFrame) int {
		enc, err := EncodeSessionFrame(f)
		if err != nil {
			t.Error(err)
			return 0
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "http://worker/fft/shard", bytes.NewReader(enc)))
		return rec.Code
	}
	_, complexes0 := PoolsOutstanding()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				id := uint64(g<<16 | i)
				steps := []struct {
					f    SessionFrame
					want []int
				}{
					{SessionFrame{Op: OpSessOpen, ID: id, Spec: &spec}, []int{http.StatusOK}},
					{SessionFrame{Op: OpSessCols, ID: id, VecLen: 4, VecCount: 8, Data: cols}, []int{http.StatusOK, http.StatusNotFound, http.StatusConflict}},
					{SessionFrame{Op: OpSessRows, ID: id}, []int{http.StatusOK, http.StatusNotFound}},
					{SessionFrame{Op: OpSessClose, ID: id}, []int{http.StatusOK}},
				}
				if i%2 == 0 {
					steps = steps[:2] // left to its timer after the cols step
				}
				for _, st := range steps {
					if code := post(st.f); !slices.Contains(st.want, code) {
						t.Errorf("session %d %s: status %d, want one of %v", id, st.f.Op, code, st.want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "every session to end", func() bool {
		_, complexes := PoolsOutstanding()
		return metric(t, s, "sess_open") == 0 && complexes == complexes0
	})
}

// TestSessionTableLimit checks the open-session cap: the table refuses
// session opens beyond MaxSessions with 429, and an ended session frees
// its slot.
func TestSessionTableLimit(t *testing.T) {
	s := newSessionServer(t, Config{MaxSessions: 2})
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
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessClose, ID: 1}); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}
	if code, body := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: 3, Spec: &spec}); code != http.StatusOK {
		t.Fatalf("open after a close: status %d: %s", code, body)
	}
	for _, id := range []uint64{2, 3} {
		if code, _ := sessPost(t, h, SessionFrame{Op: OpSessClose, ID: id}); code != http.StatusOK {
			t.Fatalf("close %d: status %d", id, code)
		}
	}
}

// TestSessionPanicIsolation: session steps run behind the daemon's one
// isolation boundary — a panic in a cols step answers 500, counts in
// fft_panics_total and ends that session, and the worker goes on
// serving sessions.
func TestSessionPanicIsolation(t *testing.T) {
	s := newSessionServer(t, Config{})
	h := s.Handler()
	var once sync.Once
	s.execHook = func(batchKey, [][]complex128) {
		fire := false
		once.Do(func() { fire = true })
		if fire {
			panic("injected session failure")
		}
	}
	spec := SessionSpec{N1: 4, N2: 8, ColStart: 0, ColCount: 8, RowStart: 0, RowCount: 4}
	for id, want := range []int{http.StatusInternalServerError, http.StatusOK} {
		if code, body := sessPost(t, h, SessionFrame{Op: OpSessOpen, ID: uint64(id), Spec: &spec}); code != http.StatusOK {
			t.Fatalf("open %d: status %d: %s", id, code, body)
		}
		if code, body := sessPost(t, h, SessionFrame{Op: OpSessCols, ID: uint64(id), VecLen: 4, VecCount: 8, Data: randVecs(4, 8, 9)}); code != want {
			t.Fatalf("cols %d: status %d, want %d: %s", id, code, want, body)
		}
	}
	if code, _ := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 0}); code != http.StatusNotFound {
		t.Fatalf("rows of the session whose cols step panicked: status %d, want 404", code)
	}
	if code, body := sessPost(t, h, SessionFrame{Op: OpSessRows, ID: 1}); code != http.StatusOK {
		t.Fatalf("rows after the panic: status %d: %s", code, body)
	}
	if got := s.m.panics.Value(); got != 1 {
		t.Fatalf("fft_panics_total = %d, want 1", got)
	}
}

// peerTransport is a network whose every push meets the same fate: a
// refused connection (err), or the peer's answer code.
type peerTransport struct {
	err  error
	code int
}

func (p peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Body.Close()
	if p.err != nil {
		return nil, p.err
	}
	return &http.Response{StatusCode: p.code, Body: io.NopCloser(strings.NewReader("unknown session 8")), Request: req}, nil
}

// TestSessionColsNamesFailedPeer: a worker whose exchange push fails
// answers the cols frame 502 and names the peer that did not take the
// push, so the coordinator can tell the silent peer from the pusher. A
// peer that answers 404 — its session ended, the attempt is failing
// elsewhere — is named by nobody: the cols frame is a 409. Either way
// the failed step ends the session (newSessionServer's cleanup).
func TestSessionColsNamesFailedPeer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		peer     peerTransport
		wantCode int
		wantPeer string
	}{
		{"peer refuses the push", peerTransport{err: errors.New("connection refused")}, http.StatusBadGateway, "peer-1"},
		{"peer's session ended", peerTransport{code: http.StatusNotFound}, http.StatusConflict, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSessionServer(t, Config{Client: &http.Client{Transport: tc.peer}})
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
			if rec.Code != tc.wantCode || rec.Header().Get(PeerHeader) != tc.wantPeer {
				t.Fatalf("cols: status %d, %s = %q; want %d naming %q",
					rec.Code, PeerHeader, rec.Header().Get(PeerHeader), tc.wantCode, tc.wantPeer)
			}
		})
	}
}
