package serve

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"codeletfft/internal/fft"
)

func randVecs(vecLen, vecCount int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]complex128, vecLen*vecCount)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return data
}

func TestShardFrameRoundTrip(t *testing.T) {
	frames := []ShardFrame{
		{Op: OpColumns, VecLen: 8, TotalN: 64, Start: 2, Data: randVecs(8, 3, 1)},
		{Op: OpColumns, VecLen: 4, TotalN: 16, Start: 0, Data: randVecs(4, 4, 2)},
		{Op: OpRows, VecLen: 16, Start: 5, Data: randVecs(16, 2, 3)},
	}
	for _, f := range frames {
		enc, err := AppendShardFrame(nil, f)
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Op, err)
		}
		dec, err := DecodeShardFrame(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Op, err)
		}
		if dec.Op != f.Op || dec.VecLen != f.VecLen || dec.TotalN != f.TotalN || dec.Start != f.Start {
			t.Fatalf("%s: header mismatch: %+v", f.Op, dec)
		}
		for i := range f.Data {
			if math.Float64bits(real(dec.Data[i])) != math.Float64bits(real(f.Data[i])) ||
				math.Float64bits(imag(dec.Data[i])) != math.Float64bits(imag(f.Data[i])) {
				t.Fatalf("%s: payload differs at %d", f.Op, i)
			}
		}
		re, err := AppendShardFrame(nil, dec)
		if err != nil || !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encode is not canonical (err %v)", f.Op, err)
		}
	}
}

func TestShardFrameRejects(t *testing.T) {
	good := ShardFrame{Op: OpColumns, VecLen: 8, TotalN: 64, Start: 0, Data: randVecs(8, 2, 4)}
	enc, err := AppendShardFrame(nil, good)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"bad magic":         func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":       func(b []byte) []byte { b[4] = 9; return b },
		"bad op":            func(b []byte) []byte { b[5] = 200; return b },
		"reserved byte":     func(b []byte) []byte { b[6] = 1; return b },
		"truncated payload": func(b []byte) []byte { return b[:len(b)-8] },
		"trailing bytes":    func(b []byte) []byte { return append(b, 0) },
		"truncated header":  func(b []byte) []byte { return b[:10] },
		"vecLen not pow2":   func(b []byte) []byte { b[8] = 7; return b },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), enc...))
		if _, err := DecodeShardFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}

	// Encoder-side rejects.
	encCases := []ShardFrame{
		{Op: OpRows, VecLen: 8, TotalN: 64, Data: randVecs(8, 1, 5)},              // rows with totalN
		{Op: OpColumns, VecLen: 8, TotalN: 60, Data: randVecs(8, 1, 5)},           // totalN not pow2
		{Op: OpColumns, VecLen: 8, TotalN: 16, Start: 1, Data: randVecs(8, 2, 5)}, // start+count > columns
		{Op: OpColumns, VecLen: 3, TotalN: 64, Data: randVecs(3, 1, 5)},           // vecLen not pow2
		{Op: shardOpCount, VecLen: 8, TotalN: 64, Data: randVecs(8, 1, 5)},        // unknown op
		{Op: OpRows, VecLen: 8, Data: nil},                                        // no vectors
		{Op: OpRows, VecLen: 8, Data: randVecs(1, 12, 5)},                         // ragged payload
	}
	for i, f := range encCases {
		if _, err := AppendShardFrame(nil, f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("encode case %d: err = %v, want ErrBadFrame", i, err)
		}
	}
}

// TestShardEndpointExecutesFourStepSegments drives the worker endpoint
// over real HTTP with the session of a whole four-step transform — all
// the columns out, all the rows back — and checks the result against
// the serial reference bit for bit: the worker runs the plan's middle
// steps on the columns the plan's first step gathered, and the plan's
// last step transposes what it returns. Factors on both sides of the
// 64-point tiles.
func TestShardEndpointExecutesFourStepSegments(t *testing.T) {
	s := New(Config{EnableShard: true, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(f SessionFrame) SessionFrame {
		t.Helper()
		f.ID = 7
		enc, err := EncodeSessionFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/fft/shard", "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := readAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", f.Op, resp.StatusCode, raw)
		}
		out, err := DecodeSessionFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	vecs := 0
	for _, f := range [][2]int{{128, 256}, {8, 16}} {
		n1, n2 := f[0], f[1]
		fs, err := fft.NewFourStep(n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		x := randVecs(fs.N, 1, 9)
		want := append([]complex128(nil), x...)
		if err := fs.Transform(want); err != nil {
			t.Fatal(err)
		}

		// Gather, session, final transpose — exactly the coordinator's steps.
		cols := make([]complex128, fs.N)
		fs.ColumnsFrom(cols, x, n2, false)
		spec := SessionSpec{N1: n1, N2: n2, ColCount: n2, RowCount: n1}
		post(SessionFrame{Op: OpSessOpen, Spec: &spec})
		post(SessionFrame{Op: OpSessCols, VecLen: n1, VecCount: n2, Data: cols})
		rows := post(SessionFrame{Op: OpSessRows})
		post(SessionFrame{Op: OpSessClose})
		got := make([]complex128, fs.N)
		fs.TransposeRows(got, rows.Data, n1, false)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d×%d bin %d: session-executed four-step %v != serial reference %v", n1, n2, i, got[i], want[i])
			}
		}
		vecs += n1 + n2
	}
	snap := s.Registry().Snapshot()
	if got := snap["shard_requests_total"]; got != 8 {
		t.Errorf("shard_requests_total = %v, want 8", got)
	}
	if got := snap["shard_vecs_total"]; got != float64(vecs) {
		t.Errorf("shard_vecs_total = %v, want %d", got, vecs)
	}
}

// TestWorkerRefusesOldFrameVersions: version 1 of the frame carried the
// cols and rows payloads as split planes and version 2 scaled exchange
// payloads; version 3 carries interleaved values and leaves the step-3
// scale to the receiver. So a frame of an older version is refused by a
// worker of this one, on its header, with 400 — never misread. Every
// session op of an older coordinator or peer is refused, before any
// session is opened.
func TestWorkerRefusesOldFrameVersions(t *testing.T) {
	spec := SessionSpec{N1: 4, N2: 2, ColCount: 2, RowCount: 4}
	for _, version := range []byte{1, 2} {
		for _, f := range []SessionFrame{
			{Op: OpSessOpen, ID: 1, Spec: &spec},
			{Op: OpSessCols, ID: 1, VecLen: 4, VecCount: 2, Data: randVecs(4, 2, 3)},
			{Op: OpSessExchange, ID: 1, VecLen: 2, VecCount: 2, Arg0: 0, Arg1: 2, Data: randVecs(2, 2, 4)},
			{Op: OpSessRows, ID: 1},
			{Op: OpSessClose, ID: 1},
		} {
			enc, err := EncodeSessionFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			enc[4] = version
			s := New(Config{EnableShard: true})
			if code := shardPost(s, enc); code != http.StatusBadRequest {
				t.Errorf("version-%d %s: status %d, want 400", version, f.Op, code)
			}
			snap := s.Registry().Snapshot()
			if snap["sess_bad_total"] != 1 || snap["sess_open"] != 0 || snap["sess_opens_total"] != 0 {
				t.Errorf("version-%d %s: sess_bad_total = %v, sess_open = %v, sess_opens_total = %v, want 1, 0 and 0",
					version, f.Op, snap["sess_bad_total"], snap["sess_open"], snap["sess_opens_total"])
			}
		}
	}
}

// shardPost drives the server's shard endpoint with a raw body.
func shardPost(s *Server, body []byte) int {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "http://worker/fft/shard", bytes.NewReader(body)))
	return rec.Code
}

func TestShardEndpointDisabledByDefault(t *testing.T) {
	enc, _ := EncodeSessionFrame(SessionFrame{Op: OpSessClose, ID: 1})
	if code := shardPost(New(Config{}), enc); code != http.StatusNotFound {
		t.Fatalf("shard endpoint on non-worker: status %d, want 404", code)
	}
}

func TestShardEndpointShedsWhileDraining(t *testing.T) {
	s := New(Config{EnableShard: true})
	s.StartDrain()
	enc, _ := EncodeSessionFrame(SessionFrame{Op: OpSessClose, ID: 1})
	if code := shardPost(s, enc); code != http.StatusServiceUnavailable {
		t.Fatalf("draining shard: status %d, want 503", code)
	}
}

// TestShardEndpointBadFrames: whatever the session decoder rejects —
// an FFS1 frame included, the endpoint has one decode path — is a 400:
// among them a frame of another version, and an open whose factors no
// coordinator builds.
func TestShardEndpointBadFrames(t *testing.T) {
	ffs1, err := AppendShardFrame(nil, ShardFrame{Op: OpRows, VecLen: 8, Data: randVecs(8, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ack, _ := EncodeSessionFrame(SessionFrame{Op: OpSessAck, ID: 1})
	cols, _ := EncodeSessionFrame(SessionFrame{Op: OpSessCols, ID: 1, VecLen: 4, VecCount: 2, Data: randVecs(4, 2, 2)})
	v3 := append([]byte(nil), cols...)
	v3[4] = frameVersion + 1
	// The encoder refuses the spec, so the frame is built by hand.
	odd := SessionSpec{N1: 3, N2: 8, ColCount: 8, RowCount: 3}
	open3x8 := appendSpec(appendHeader(nil, FrameHeader{Op: OpSessOpen, ID: 1, Arg0: specLen(&odd)}), &odd)
	for name, body := range map[string][]byte{
		"FFS1 frame":       ffs1,
		"empty body":       nil,
		"truncated header": cols[:headerLen-1],
		"truncated cols":   cols[:len(cols)-8],
		"ack as a request": ack,
		"another version":  v3,
		"3×8 spec":         open3x8,
	} {
		s := New(Config{EnableShard: true})
		if code := shardPost(s, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if got := s.Registry().Snapshot()["sess_bad_total"]; got != 1 {
			t.Errorf("%s: sess_bad_total = %v, want 1", name, got)
		}
	}
}

// FuzzShardFrame pins the codec's safety properties: decoding arbitrary
// bytes never panics, and any frame that decodes re-encodes to exactly
// the input bytes (canonical encoding).
func FuzzShardFrame(f *testing.F) {
	seed := ShardFrame{Op: OpColumns, VecLen: 4, TotalN: 16, Start: 1, Data: randVecs(4, 2, 6)}
	if enc, err := AppendShardFrame(nil, seed); err == nil {
		f.Add(enc)
	}
	rows := ShardFrame{Op: OpRows, VecLen: 2, Start: 0, Data: randVecs(2, 3, 7)}
	if enc, err := AppendShardFrame(nil, rows); err == nil {
		f.Add(enc)
	}
	f.Add([]byte(shardMagic))
	f.Add(bytes.Repeat([]byte{0}, shardHeaderLen))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := DecodeShardFrame(raw)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error does not wrap ErrBadFrame: %v", err)
			}
			return
		}
		re, err := AppendShardFrame(nil, dec)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("re-encoding is not canonical:\n in: %x\nout: %x", raw, re)
		}
	})
}
