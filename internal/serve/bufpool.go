// Pooled buffers for the binary shard path. Frames on the wire and the
// complex scratch behind them are the cluster's steady-state memory
// traffic: a coordinator streaming transforms would otherwise allocate
// (and garbage-collect) tens of megabytes per transform. Both pools are
// size-classed by rounding capacities up to the next power of two, so a
// steady mix of shapes converges onto a small set of reusable buffers
// and the AllocsPerRun guards in the tests can pin the path at zero.
//
// Ownership discipline: Acquire returns a buffer that the caller owns
// exclusively until it calls Release; Release transfers ownership back
// to the pool and the caller must not touch the buffer (or any slice of
// it) afterwards. Slices handed to other goroutines must therefore be
// fully consumed before Release — the fault-injection tests exercise
// the error paths to make sure no release happens twice and no buffer
// escapes.
package serve

import (
	"errors"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// framesOut and complexOut count buffers acquired and not yet released.
// An open session pins one complex buffer (its rows block); everything
// else is back by the time its request returns, so the fault-injection
// tests can tell a leak from a buffer the protocol means to hold.
var framesOut, complexOut atomic.Int64

// PoolsOutstanding reports how many frame and complex buffers are
// acquired and not yet released, process-wide.
func PoolsOutstanding() (frames, complexes int64) {
	return framesOut.Load(), complexOut.Load()
}

// byteBuf size classes: pools[i] holds buffers of capacity 1<<i.
var byteBufPools [34]sync.Pool

// AcquireFrame returns a byte buffer with length n (capacity possibly
// larger) from the frame pool. Release with ReleaseFrame.
func AcquireFrame(n int) *[]byte {
	if n < 0 {
		n = 0
	}
	framesOut.Add(1)
	class := sizeClass(n)
	if p, _ := byteBufPools[class].Get().(*[]byte); p != nil {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, 1<<class)
	return &b
}

// ReleaseFrame returns a buffer acquired with AcquireFrame to the pool.
// The caller must not use the buffer afterwards. nil is a no-op.
func ReleaseFrame(p *[]byte) {
	if p == nil || cap(*p) == 0 {
		return
	}
	class := uint(bits.Len(uint(cap(*p)))) - 1
	if 1<<class != cap(*p) {
		return // foreign buffer; let the GC have it
	}
	framesOut.Add(-1)
	byteBufPools[class].Put(p)
}

// maxPooledBody is the longest body ReadBodyPooled sizes a buffer for
// on the word of its declared length: the largest payload plus the
// largest session spec, generously.
const maxPooledBody = int64(SessionHeaderLen) + 16*int64(MaxFrameElems) + 1<<20

// ReadBodyPooled reads r to its end into a frame buffer from the pool —
// sized once by the declared length when there is a plausible one — for
// both directions of the worker protocol: a worker reading a session
// request, a coordinator reading the response. A body that runs past
// its declared length is an error. The caller owns the returned buffer
// and must ReleaseFrame it.
func ReadBodyPooled(r io.Reader, declared int64) (*[]byte, error) {
	if declared < 0 || declared > maxPooledBody {
		b, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		// Moved into the pool's own memory so that the release accounting
		// never sees a foreign buffer.
		bp := AcquireFrame(len(b))
		copy(*bp, b)
		return bp, nil
	}
	bp := AcquireFrame(int(declared))
	if _, err := io.ReadFull(r, *bp); err != nil {
		ReleaseFrame(bp)
		return nil, err
	}
	var extra [1]byte
	if n, _ := r.Read(extra[:]); n > 0 {
		ReleaseFrame(bp)
		return nil, errors.New("body longer than its declared length")
	}
	return bp, nil
}

// complexBuf size classes, same scheme in units of complex128.
var complexBufPools [28]sync.Pool

// AcquireComplex returns a []complex128 of length n from the scratch
// pool, zeroed is NOT guaranteed. Release with ReleaseComplex.
func AcquireComplex(n int) *[]complex128 {
	if n < 0 {
		n = 0
	}
	complexOut.Add(1)
	class := sizeClass(n)
	if p, _ := complexBufPools[class].Get().(*[]complex128); p != nil {
		*p = (*p)[:n]
		return p
	}
	b := make([]complex128, n, 1<<class)
	return &b
}

// ReleaseComplex returns a buffer acquired with AcquireComplex to the
// pool. The caller must not use the buffer afterwards. nil is a no-op.
func ReleaseComplex(p *[]complex128) {
	if p == nil || cap(*p) == 0 {
		return
	}
	class := uint(bits.Len(uint(cap(*p)))) - 1
	if 1<<class != cap(*p) {
		return
	}
	if raceEnabled {
		// Under the race detector a buffer is overwritten as it is taken
		// back: a holder that let go while someone could still touch it
		// races with this write, and a stale reader finds NaNs, not a
		// plausible answer.
		for i := range *p {
			(*p)[i] = complex(math.NaN(), math.NaN())
		}
	}
	complexOut.Add(-1)
	complexBufPools[class].Put(p)
}

// sizeClass returns the smallest c with 1<<c ≥ n.
func sizeClass(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}
