package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
		{Kind: KindForward, ID: 1<<63 + 5, Complex: []complex128{1 + 2i, -3.5 + 0.25i}},
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
		if dec.Kind != f.Kind || dec.ID != f.ID {
			t.Fatalf("kind %v, id %d -> %v, %d", f.Kind, f.ID, dec.Kind, dec.ID)
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
	cases["FFB1 magic"] = bad(func(b []byte) { copy(b, "FFB1") })
	cases["FFS2 magic"] = bad(func(b []byte) { copy(b, "FFS2") })
	cases["bad version"] = bad(func(b []byte) { b[4] = 9 })
	cases["bad op"] = bad(func(b []byte) { b[5] = byte(opCount) })
	cases["session op"] = bad(func(b []byte) { b[5] = byte(OpSessExchange) })
	cases["bad elem"] = bad(func(b []byte) { b[6] = 7 })
	cases["reserved set"] = bad(func(b []byte) { b[7] = 1 })
	cases["count lies high"] = bad(func(b []byte) { b[16] = 3 })
	cases["count lies low"] = bad(func(b []byte) { b[16] = 1 })
	cases["two vectors"] = bad(func(b []byte) { b[20] = 2 })
	cases["an argument"] = bad(func(b []byte) { b[24] = 1 })
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
	rejectedAtEveryDoor(t, "oversized count", appendHeader(nil, FrameHeader{Op: KindForward, VecLen: MaxFrameElems + 1, VecCount: 1}))
}

func TestEncodeRejectsAmbiguousPayload(t *testing.T) {
	for _, f := range []Frame{
		{Kind: KindForward},
		{Kind: KindForward, Complex: []complex128{1}, Real: []float64{1}},
		{Kind: opCount, Complex: []complex128{1}},
		{Kind: OpSessCols, Complex: []complex128{1}},
	} {
		if _, err := EncodeFrame(f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("EncodeFrame(%+v): error = %v, want ErrBadFrame", f, err)
		}
	}
}

// retiredFrames are a frame of each format the one header replaced,
// built by hand: FFB1 (/fft/bin's 12-byte header) and FFS2 version 4
// (the sessions' 40-byte one). Both are refused wherever they arrive.
func retiredFrames() map[string][]byte {
	ffb1 := append([]byte("FFB1"), 1, byte(KindForward), elemComplex, 0, 2, 0, 0, 0)
	ffs2 := binary.LittleEndian.AppendUint64(append([]byte("FFS2"), 4, 1, 0, 0), 1) // cols, session 1
	ffs2 = append(binary.LittleEndian.AppendUint64(ffs2, 1<<32|2), make([]byte, 16)...)
	return map[string][]byte{
		"FFB1": AppendComplexPayload(ffb1, []complex128{1 + 2i, 3 - 4i}),
		"FFS2": AppendComplexPayload(ffs2, []complex128{1, 2}),
	}
}

// frameViews are the two ways to read a frame — as a transform, and as
// a session step the way a worker reads it — each in memory and
// streaming. Both give back the frame they read re-encoded.
var frameViews = map[string]struct {
	decode func(b []byte) ([]byte, error)
	read   func(body io.Reader, declared int64, room int) ([]byte, error)
}{
	"transform": {
		func(b []byte) ([]byte, error) {
			f, err := DecodeFrame(b)
			if err != nil {
				return nil, err
			}
			return reencoded(EncodeFrame(f))
		},
		func(body io.Reader, declared int64, _ int) ([]byte, error) {
			f, buf, err := ReadFrame(body, declared, nil)
			if err != nil {
				if buf != nil {
					return nil, fmt.Errorf("a buffer came back with error %v", err)
				}
				return nil, err
			}
			defer ReleaseComplex(buf)
			return reencoded(EncodeFrame(f))
		},
	},
	"session": {
		func(b []byte) ([]byte, error) {
			f, err := DecodeSessionFrame(b)
			if err != nil {
				return nil, err
			}
			return reencoded(EncodeSessionFrame(f))
		},
		func(body io.Reader, declared int64, room int) ([]byte, error) {
			f, err := readFrame(body, declared, room)
			if err != nil {
				return nil, err
			}
			return reencoded(EncodeSessionFrame(f))
		},
	},
}

// reencoded turns an encoder's refusal of a frame just decoded into an
// error that is no ErrBadFrame: a failure, not a refusal.
func reencoded(b []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, fmt.Errorf("a decoded frame does not encode: %v", err)
	}
	return b, nil
}

// encoded encodes each seed, a Frame or a SessionFrame, and fails f on
// one the encoder refuses.
func encoded(f *testing.F, seeds ...any) [][]byte {
	enc := make([][]byte, len(seeds))
	for i, seed := range seeds {
		var err error
		if fr, ok := seed.(Frame); ok {
			enc[i], err = EncodeFrame(fr)
		} else {
			enc[i], err = EncodeSessionFrame(seed.(SessionFrame))
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	return enc
}

// FuzzServeCodec, FuzzReadFrame and FuzzSessionFrame run the one check
// of the one frame header, checkFrame, each from its own corpus: the
// in-memory transform frames, the transform frames a stream delivers,
// and the session steps. Kept apart, each corpus grows from its own
// kind of frame under -fuzz.
func FuzzServeCodec(f *testing.F) {
	enc := encoded(f,
		Frame{Kind: KindForward, ID: 7, Complex: []complex128{1 + 2i, 3 - 4i}},
		Frame{Kind: KindReal, Real: []float64{0.5, -0.25, 1, 0}},
		Frame{Kind: KindRealInverse, Complex: []complex128{1, 2, 3}},
	)
	for _, b := range [][]byte{
		enc[0], enc[1], enc[2],
		enc[0][:len(enc[0])-3], // truncated
		[]byte(frameMagic),     // a header fragment
		retiredFrames()["FFB1"],
	} {
		f.Add(b)
	}
	f.Fuzz(checkFrame)
}

func FuzzReadFrame(f *testing.F) {
	enc := encoded(f,
		Frame{Kind: KindForward, ID: 7, Complex: []complex128{1 + 2i, 3 - 4i}},
		Frame{Kind: KindReal, Real: []float64{0.5, -0.25, 1, 0}},
		Frame{Kind: KindRealInverse, Complex: []complex128{1, 2, 3}},
		Frame{Kind: KindReal, Real: []float64{1, 2, 3}}, // half a complex element
	)
	for _, b := range [][]byte{
		enc[0], enc[1], enc[2], enc[3],
		enc[0][:len(enc[0])-3], // truncated
		append(enc[1], 0),      // a trailing byte
		[]byte(frameMagic),     // a header fragment
	} {
		f.Add(b)
	}
	f.Fuzz(checkFrame)
}

func FuzzSessionFrame(f *testing.F) {
	spec := testSpec()
	enc := encoded(f,
		SessionFrame{Op: OpSessOpen, ID: 1, Spec: &spec},
		SessionFrame{Op: OpSessCols, ID: 1, VecLen: 4, VecCount: 2, Data: randVecs(4, 2, 1)},
		SessionFrame{Op: OpSessExchange, ID: 1, VecLen: 2, VecCount: 2, Arg0: 1, Arg1: 2, Data: randVecs(2, 2, 2)},
		SessionFrame{Op: OpSessRows, ID: 1},
		SessionFrame{Op: OpSessAck, ID: 1},
	)
	v1 := append([]byte(nil), enc[1]...)
	v1[4] = 1
	v2 := append([]byte(nil), enc[2]...)
	v2[4] = 2
	for _, b := range [][]byte{
		enc[0], enc[1], enc[2], enc[3], enc[4],
		[]byte(frameMagic), // a header fragment
		make([]byte, headerLen),
		v1, // the cols frame in version 1 of the format, which carried planes
		v2, // the exchange frame in version 2, which carried scaled bins
		retiredFrames()["FFS2"],
	} {
		f.Add(b)
	}
	f.Fuzz(checkFrame)
}

// checkFrame pins the one frame header through both views, for
// arbitrary bytes: nothing panics and every refusal wraps ErrBadFrame;
// a frame that decodes re-encodes to the identical bytes (so truncated
// or padded frames can never round-trip quietly), stops decoding when
// truncated, and decodes in one view at most; the streaming read,
// however the bytes arrive and with the true length declared or none,
// accepts exactly when the in-memory decode does and yields the same
// frame bit for bit; a declared length that lies is always refused;
// ReadSessionReply takes a payload only into a buffer that holds it
// exactly, and a header-only frame with none; and no way out leaves a
// pooled buffer behind.
func checkFrame(t *testing.T, b []byte) {
	frames0, complexes0 := PoolsOutstanding()
	accepted := 0
	for view, v := range frameViews {
		want, wantErr := v.decode(b)
		switch {
		case wantErr != nil && !errors.Is(wantErr, ErrBadFrame):
			t.Fatalf("%s: decode error %v does not wrap ErrBadFrame", view, wantErr)
		case wantErr == nil && !bytes.Equal(want, b):
			t.Fatalf("%s: round trip not canonical:\n in  %x\n out %x", view, b, want)
		case wantErr == nil:
			accepted++
			if _, err := v.decode(b[:len(b)-1]); err == nil {
				t.Fatalf("%s: truncated frame decoded", view)
			}
		}
		for how, deliver := range deliveries {
			for _, declared := range []int64{int64(len(b)), -1, int64(len(b)) + 1, int64(len(b)) - 1} {
				lying := declared >= 0 && declared != int64(len(b))
				got, err := v.read(deliver(b), declared, len(b)/16)
				switch {
				case err != nil && !errors.Is(err, ErrBadFrame):
					t.Fatalf("%s, %s, declared %d: error %v does not wrap ErrBadFrame", view, how, declared, err)
				case err != nil && wantErr == nil && !lying:
					t.Fatalf("%s, %s, declared %d: the read refused (%v) a frame the decode accepts", view, how, declared, err)
				case err == nil && (wantErr != nil || lying):
					t.Fatalf("%s, %s, declared %d of %d: the read accepted; the decode says %v", view, how, declared, len(b), wantErr)
				case err == nil && !bytes.Equal(got, b):
					t.Fatalf("%s, %s: the frame read differs from the bytes", view, how)
				}
			}
		}
	}
	if accepted > 1 {
		t.Fatal("both views decoded the frame")
	}
	if dec, err := DecodeSessionFrame(b); err == nil {
		n := dec.VecLen * dec.VecCount
		_, err := ReadSessionReply(bytes.NewReader(b), int64(len(b)), nil)
		if (err == nil) != (n == 0) || (err != nil && !errors.Is(err, ErrBadFrame)) {
			t.Fatalf("a reply of %d elements read with no destination: err %v", n, err)
		}
		if n > 0 {
			into := make([]complex128, n)
			got, err := ReadSessionReply(bytes.NewReader(b), int64(len(b)), into)
			if err != nil || &got.Data[0] != &into[0] {
				t.Fatalf("into the caller's buffer: err %v", err)
			}
			if _, err := ReadSessionReply(bytes.NewReader(b), int64(len(b)), into[1:]); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("a destination one element short: err %v, want ErrBadFrame", err)
			}
		}
	}
	if frames, complexes := PoolsOutstanding(); frames != frames0 || complexes != complexes0 {
		t.Fatalf("%d frames and %d complex buffers left outstanding", frames-frames0, complexes-complexes0)
	}
}

// refusingReader fails the test if anything reads it.
type refusingReader struct{ t *testing.T }

func (r refusingReader) Read([]byte) (int, error) {
	r.t.Error("the payload was read")
	return 0, io.EOF
}

// TestWrongShapeCostsAHeader: a frame an endpoint will not serve — a
// shape the daemon does not serve, an op of the other endpoint, a
// retired format — is refused on its 40-byte header, before any of its
// payload is read.
func TestWrongShapeCostsAHeader(t *testing.T) {
	s := New(Config{MaxN: 1 << 12, EnableShard: true})
	type row struct {
		path string
		head []byte
		size int // the payload the body declares behind the header
	}
	at := func(path string, h FrameHeader) row { return row{path, appendHeader(nil, h), h.payloadLen()} }
	rows := map[string]row{
		"below MinN":           at("/fft/bin", FrameHeader{Op: KindForward, VecLen: 3, VecCount: 1}),
		"above MaxN":           at("/fft/bin", FrameHeader{Op: KindInverse, VecLen: 1 << 13, VecCount: 1}),
		"real odd length":      at("/fft/bin", FrameHeader{Op: KindReal, Real: true, VecLen: 101, VecCount: 1}),
		"real kind, complex":   at("/fft/bin", FrameHeader{Op: KindReal, VecLen: 64, VecCount: 1}),
		"complex kind, real":   at("/fft/bin", FrameHeader{Op: KindForward, Real: true, VecLen: 64, VecCount: 1}),
		"real-inverse, tiny":   at("/fft/bin", FrameHeader{Op: KindRealInverse, VecLen: 2, VecCount: 1}),
		"real-inverse, no bin": at("/fft/bin", FrameHeader{Op: KindRealInverse, VecCount: 1}),
		"session op":           at("/fft/bin", FrameHeader{Op: OpSessCols, VecLen: 64, VecCount: 2}),
		"transform op":         at("/fft/shard", FrameHeader{Op: KindForward, VecLen: 64, VecCount: 1}),
	}
	for name, b := range retiredFrames() {
		for _, path := range []string{"/fft/bin", "/fft/shard"} {
			rows[name+" on "+path] = row{path, b[:headerLen], len(b) - headerLen}
		}
	}
	for name, r := range rows {
		req := httptest.NewRequest(http.MethodPost, r.path, io.MultiReader(bytes.NewReader(r.head), refusingReader{t}))
		req.ContentLength = int64(headerLen + r.size)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
	if bin, shard := s.m.bad.Value(), s.m.sessBad.Value(); bin != 10 || shard != 3 {
		t.Errorf("bad-request counters = %d on /fft/bin and %d on /fft/shard, want 10 and 3", bin, shard)
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
	claim := appendHeader(nil, FrameHeader{Op: KindForward, VecLen: 1 << 22, VecCount: 1})

	eof := allocatedBy(func() {
		if _, _, err := ReadFrame(bytes.NewReader(claim), -1, nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("header then EOF: error = %v, want ErrBadFrame", err)
		}
	})
	if eof > 2*readStep {
		t.Errorf("a header-only body made ReadFrame allocate %d bytes; the step is %d", eof, readStep)
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
