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
// the serial reference bit for bit: both run the SoA radix-4 codelets
// and the shared twiddle table — the worker because that is what its
// default plans run at these factor lengths (fft.AutoKernel).
func TestShardEndpointExecutesFourStepSegments(t *testing.T) {
	s := New(Config{EnableShard: true, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n1, n2 = 128, 256
	fs, err := fft.NewFourStep(n1, n2)
	if err != nil {
		t.Fatal(err)
	}
	x := randVecs(fs.N, 1, 9)
	want := append([]complex128(nil), x...)
	fs.Transform(want)

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

	// Gather, session, final transpose — exactly the coordinator's steps.
	cols := make([]complex128, fs.N)
	fs.GatherColumns(cols, x)
	spec := SessionSpec{N1: n1, N2: n2, ColCount: n2, RowCount: n1}
	post(SessionFrame{Op: OpSessOpen, Spec: &spec})
	post(SessionFrame{Op: OpSessCols, VecLen: n1, VecCount: n2, Data: cols})
	rows := post(SessionFrame{Op: OpSessRows})
	post(SessionFrame{Op: OpSessClose})
	got := make([]complex128, fs.N)
	fs.FinalTranspose(got, rows.Data)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bin %d: session-executed four-step %v != serial reference %v", i, got[i], want[i])
		}
	}
	snap := s.Registry().Snapshot()
	if got := snap["shard_requests_total"]; got != 4 {
		t.Errorf("shard_requests_total = %v, want 4", got)
	}
	if got := snap["shard_vecs_total"]; got != float64(n2+n1) {
		t.Errorf("shard_vecs_total = %v, want %d", got, n2+n1)
	}
}

// TestShardColumnScaleTables pins which table a column slab scales by:
// a power-of-two modulus goes through fft's shared two-level table
// (what the serial reference uses), any other modulus through the full
// TwiddlesAny table — each bit for bit. The sub-FFTs ahead of the
// scaling are the worker's default plan's.
func TestShardColumnScaleTables(t *testing.T) {
	s := New(Config{EnableShard: true})
	const vecLen, start = 8, 1
	pl, err := fft.NewPlan(vecLen, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, totalN := range []int{64, 24} {
		data := randVecs(vecLen, 2, 3)
		want := append([]complex128(nil), data...)
		for v := 0; v < 2; v++ {
			vec := want[v*vecLen : (v+1)*vecLen]
			pl.TransformKernel(vec, fft.Twiddles(vecLen), fft.AutoKernel(vecLen))
			if fft.Log2(totalN) >= 0 {
				fft.TwoLevelTwiddles(totalN).Scale(vec, start+v)
			} else {
				fft.TwiddleScaleAny(vec, fft.TwiddlesAny(totalN), start+v, totalN)
			}
		}
		// The column phase of a session (execSessCols): sub-FFTs, then scale.
		vecs := splitRows(data, vecLen)
		if err := s.run(batchKey{n: vecLen, kind: KindForward}, vecs, nil, func() error {
			return scaleColumns(vecs, start, totalN)
		}); err != nil {
			t.Fatalf("totalN=%d: %v", totalN, err)
		}
		for i := range want {
			if data[i] != want[i] {
				t.Fatalf("totalN=%d elem %d: worker %v != reference %v", totalN, i, data[i], want[i])
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
// an FFS1 frame included, the endpoint has one decode path — is a 400.
func TestShardEndpointBadFrames(t *testing.T) {
	ffs1, err := AppendShardFrame(nil, ShardFrame{Op: OpRows, VecLen: 8, Data: randVecs(8, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ack, _ := EncodeSessionFrame(SessionFrame{Op: OpSessAck, ID: 1})
	cols, _ := EncodeSessionFrame(SessionFrame{Op: OpSessCols, ID: 1, VecLen: 4, VecCount: 2, Data: randVecs(4, 2, 2)})
	for name, body := range map[string][]byte{
		"FFS1 frame":       ffs1,
		"empty body":       nil,
		"truncated header": cols[:sessHeaderLen-1],
		"truncated cols":   cols[:len(cols)-8],
		"ack as a request": ack,
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
