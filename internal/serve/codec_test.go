package serve

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Kind: KindForward, Complex: []complex128{1 + 2i, -3.5 + 0.25i}},
		{Kind: KindInverse, Complex: []complex128{complex(math.Inf(1), math.NaN())}},
		{Kind: KindReal, Real: []float64{0, 1, -1, 0.5}},
		{Kind: KindRealInverse, Complex: []complex128{1, 2, 3}},
		{Kind: KindForward, Complex: []complex128{}},
		{Kind: KindReal, Real: []float64{}},
	} {
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %v: %v", f.Kind, err)
		}
		dec, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", f.Kind, err)
		}
		if dec.Kind != f.Kind {
			t.Fatalf("kind %v -> %v", f.Kind, dec.Kind)
		}
		re, err := EncodeFrame(dec)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("re-encode of %v not canonical", f.Kind)
		}
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	good, err := EncodeFrame(Frame{Kind: KindForward, Complex: []complex128{1, 2i}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":                  {},
		"short header":           good[:headerLen-1],
		"truncated by one byte":  good[:len(good)-1],
		"truncated half payload": good[:headerLen+8],
		"one trailing byte":      append(append([]byte(nil), good...), 0),
	}
	bad := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases["bad magic"] = bad(func(b []byte) { b[0] = 'X' })
	cases["bad version"] = bad(func(b []byte) { b[4] = 9 })
	cases["bad kind"] = bad(func(b []byte) { b[5] = byte(kindCount) })
	cases["bad elem"] = bad(func(b []byte) { b[6] = 7 })
	cases["reserved set"] = bad(func(b []byte) { b[7] = 1 })
	cases["count lies high"] = bad(func(b []byte) { b[8] = 3 })
	cases["count lies low"] = bad(func(b []byte) { b[8] = 1 })
	for name, b := range cases {
		rejectedAtEveryDoor(t, name, b)
	}
}

// deliveries are the ways a byte string can reach ReadFrame: whole, one
// byte per Read, and in two halves.
var deliveries = map[string]func(b []byte) io.Reader{
	"whole":    func(b []byte) io.Reader { return bytes.NewReader(b) },
	"bytewise": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	"in halves": func(b []byte) io.Reader {
		return io.MultiReader(bytes.NewReader(b[:len(b)/2]), bytes.NewReader(b[len(b)/2:]))
	},
}

// rejectedAtEveryDoor holds a malformed frame to all three ways in: the
// in-memory decoder, the streaming reader however the bytes arrive and
// whether or not their length is declared, and the daemon's 400.
func rejectedAtEveryDoor(t *testing.T, name string, b []byte) {
	t.Helper()
	if _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
		t.Errorf("%s: DecodeFrame error = %v, want ErrBadFrame", name, err)
	}
	for how, deliver := range deliveries {
		for _, declared := range []int64{int64(len(b)), -1} {
			if _, buf, err := ReadFrame(deliver(b), declared, nil); !errors.Is(err, ErrBadFrame) || buf != nil {
				t.Errorf("%s, %s, declared %d: ReadFrame error = %v (buffer %v), want ErrBadFrame and none", name, how, declared, err, buf != nil)
			}
		}
	}
	rec := httptest.NewRecorder()
	New(Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fft/bin", bytes.NewReader(b)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("%s: /fft/bin status = %d, want 400", name, rec.Code)
	}
}

func TestFrameCountLimit(t *testing.T) {
	// A header that promises MaxFrameElems+1 elements must be rejected
	// before any payload-sized allocation.
	b := append([]byte(frameMagic), frameVersion, byte(KindForward), elemComplex, 0)
	n := uint32(MaxFrameElems + 1)
	b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	rejectedAtEveryDoor(t, "oversized count", b)
}

func TestEncodeRejectsAmbiguousPayload(t *testing.T) {
	for _, f := range []Frame{
		{Kind: KindForward},
		{Kind: KindForward, Complex: []complex128{1}, Real: []float64{1}},
		{Kind: kindCount, Complex: []complex128{1}},
	} {
		if _, err := EncodeFrame(f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("EncodeFrame(%+v): error = %v, want ErrBadFrame", f, err)
		}
	}
}

// FuzzServeCodec pins the decoder's two contracts: arbitrary bytes
// never panic, and any frame that decodes re-encodes to the identical
// bytes (so truncated or padded frames can never round-trip quietly).
func FuzzServeCodec(f *testing.F) {
	seed1, _ := EncodeFrame(Frame{Kind: KindForward, Complex: []complex128{1 + 2i, 3 - 4i}})
	seed2, _ := EncodeFrame(Frame{Kind: KindReal, Real: []float64{0.5, -0.25, 1, 0}})
	seed3, _ := EncodeFrame(Frame{Kind: KindRealInverse, Complex: []complex128{1, 2, 3}})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed1[:len(seed1)-3]) // truncated
	f.Add([]byte("FFB1"))       // header fragment
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v does not wrap ErrBadFrame", err)
			}
			return
		}
		enc, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame failed to encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("round trip not canonical:\n in  %x\n out %x", b, enc)
		}
		// A valid frame must stop being valid when truncated.
		if len(b) > headerLen {
			if _, err := DecodeFrame(b[:len(b)-1]); err == nil {
				t.Fatal("truncated frame decoded successfully")
			}
		}
	})
}

// FuzzReadFrame pins the streaming reader to the in-memory decoder: for
// arbitrary bytes, however delivered and with the true length declared
// or none, ReadFrame accepts exactly when DecodeFrame does and yields
// the same frame bit for bit; a declared length that lies is always
// refused; every refusal wraps ErrBadFrame; and no way out leaves a
// pooled buffer behind.
func FuzzReadFrame(f *testing.F) {
	seed1, _ := EncodeFrame(Frame{Kind: KindForward, Complex: []complex128{1 + 2i, 3 - 4i}})
	seed2, _ := EncodeFrame(Frame{Kind: KindReal, Real: []float64{0.5, -0.25, 1, 0}})
	seed3, _ := EncodeFrame(Frame{Kind: KindRealInverse, Complex: []complex128{1, 2, 3}})
	seed4, _ := EncodeFrame(Frame{Kind: KindReal, Real: []float64{1, 2, 3}}) // half a complex element
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed4)
	f.Add(seed1[:len(seed1)-3]) // truncated
	f.Add(append(append([]byte(nil), seed2...), 0))
	f.Add([]byte("FFB1")) // header fragment
	f.Fuzz(func(t *testing.T, b []byte) {
		_, out0 := PoolsOutstanding()
		want, wantErr := DecodeFrame(b)
		for how, deliver := range deliveries {
			for _, declared := range []int64{int64(len(b)), -1, int64(len(b)) + 1, int64(len(b)) - 1} {
				lying := declared >= 0 && declared != int64(len(b))
				got, buf, err := ReadFrame(deliver(b), declared, nil)
				if err != nil {
					if !errors.Is(err, ErrBadFrame) {
						t.Fatalf("%s, declared %d: error %v does not wrap ErrBadFrame", how, declared, err)
					}
					if buf != nil {
						t.Fatalf("%s, declared %d: a buffer came back with error %v", how, declared, err)
					}
					if wantErr == nil && !lying {
						t.Fatalf("%s, declared %d: ReadFrame refused (%v) a frame DecodeFrame accepts", how, declared, err)
					}
					continue
				}
				if wantErr != nil || lying {
					t.Fatalf("%s, declared %d of %d: ReadFrame accepted; DecodeFrame says %v", how, declared, len(b), wantErr)
				}
				if got.Kind != want.Kind || (got.Complex == nil) != (want.Complex == nil) || (got.Real == nil) != (want.Real == nil) {
					t.Fatalf("%s: frame %v/%v/%v, want %v/%v/%v", how, got.Kind, got.Complex != nil, got.Real != nil, want.Kind, want.Complex != nil, want.Real != nil)
				}
				if enc, err := EncodeFrame(got); err != nil || !bytes.Equal(enc, b) {
					t.Fatalf("%s: payload differs from the bytes read (err %v)", how, err)
				}
				ReleaseComplex(buf)
			}
		}
		if _, out := PoolsOutstanding(); out != out0 {
			t.Fatalf("%d pooled buffers left outstanding", out-out0)
		}
	})
}

// refusingReader fails the test if anything reads it.
type refusingReader struct{ t *testing.T }

func (r refusingReader) Read([]byte) (int, error) {
	r.t.Error("the payload was read")
	return 0, io.EOF
}

// TestWrongShapeCostsTwelveBytes: a frame the daemon will not serve is
// refused on its header, before any of its payload is read.
func TestWrongShapeCostsTwelveBytes(t *testing.T) {
	s := New(Config{MaxN: 1 << 12})
	for name, h := range map[string]FrameHeader{
		"below MinN":           {Kind: KindForward, Count: 3},
		"above MaxN":           {Kind: KindInverse, Count: 1 << 13},
		"real odd length":      {Kind: KindReal, Real: true, Count: 101},
		"real kind, complex":   {Kind: KindReal, Count: 64},
		"complex kind, real":   {Kind: KindForward, Real: true, Count: 64},
		"real-inverse, tiny":   {Kind: KindRealInverse, Count: 2},
		"real-inverse, no bin": {Kind: KindRealInverse, Count: 0},
	} {
		body := io.MultiReader(bytes.NewReader(appendFrameHeader(nil, h)), refusingReader{t})
		req := httptest.NewRequest(http.MethodPost, "/fft/bin", body)
		req.ContentLength = int64(headerLen + h.payloadLen())
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
	if got := s.m.bad.Value(); got != 7 {
		t.Errorf("bad-request counter = %d, want 7", got)
	}
}

// allocatedBy reports the bytes fn allocates, with the pools emptied
// first so that a buffer fn acquires is a buffer fn allocates.
func allocatedBy(fn func()) uint64 {
	runtime.GC() // two collections empty a sync.Pool: primary, then victim
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMemoryFollowsBytes: what ReadFrame holds is bounded by what the
// client has sent, not by what a header claims. A header announcing
// 2^22 elements (64 MiB) followed by nothing — an EOF, or a client that
// stalls — gets one step's worth of buffer and no more.
func TestMemoryFollowsBytes(t *testing.T) {
	claim := appendFrameHeader(nil, FrameHeader{Kind: KindForward, Count: 1 << 22})

	eof := allocatedBy(func() {
		if _, _, err := ReadFrame(bytes.NewReader(claim), -1, nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("header then EOF: error = %v, want ErrBadFrame", err)
		}
	})
	if eof > 2*readStep {
		t.Errorf("a 12-byte body made ReadFrame allocate %d bytes; the step is %d", eof, readStep)
	}

	pr, pw := io.Pipe()
	waiting := make(chan struct{}) // closed when ReadFrame asks for payload
	done := make(chan error, 1)
	stalled := allocatedBy(func() {
		reads := 0
		go func() {
			_, _, err := ReadFrame(readerFunc(func(p []byte) (int, error) {
				if reads++; reads == 2 {
					close(waiting)
				}
				return pr.Read(p)
			}), -1, nil)
			done <- err
		}()
		if _, err := pw.Write(claim); err != nil {
			t.Error(err)
		}
		<-waiting // the buffer is acquired and ReadFrame is blocked on the pipe
	})
	if stalled > 2*readStep {
		t.Errorf("a stalled client holds %d bytes of the daemon's memory; the step is %d", stalled, readStep)
	}
	pw.Close()
	if err := <-done; !errors.Is(err, ErrBadFrame) {
		t.Errorf("stalled then closed: error = %v, want ErrBadFrame", err)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestReadFrameGrowsPastTheStep: a payload larger than the step moves
// through the doubling buffers and still arrives bit for bit — complex,
// and real with an odd count (half an element at the end).
func TestReadFrameGrowsPastTheStep(t *testing.T) {
	const n = 1 << 20 // 16 MiB complex, 8 MiB real: both past the step
	c := make([]complex128, n)
	r := make([]float64, n+1)
	for i := range c {
		c[i] = complex(float64(i), -float64(i)/3)
		r[i] = math.Sqrt(float64(i))
	}
	for name, f := range map[string]Frame{
		"complex": {Kind: KindForward, Complex: c},
		"real":    {Kind: KindReal, Real: r},
	} {
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, declared := range []int64{int64(len(enc)), -1} {
			got, buf, err := ReadFrame(iotest.HalfReader(bytes.NewReader(enc)), declared, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if re, err := EncodeFrame(got); err != nil || !bytes.Equal(re, enc) {
				t.Fatalf("%s: frame did not survive the doubling (err %v)", name, err)
			}
			ReleaseComplex(buf)
		}
	}
}
