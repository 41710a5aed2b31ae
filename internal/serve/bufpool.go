// Pooled buffers for the binary wire paths. The complex buffers every
// payload is read into and transformed in are the cluster's and the
// daemon's steady-state memory traffic: a coordinator streaming
// transforms would otherwise allocate (and garbage-collect) tens of
// megabytes per transform. The byte pool holds only frame headers (an
// open's spec rides with its header), the trailing-byte probe and the
// portable codec's write chunks — no payload is ever a byte frame
// (codec.go). Both pools are size-classed by rounding capacities up to
// the next power of two, so a steady mix of shapes converges onto a
// small set of reusable buffers and the AllocsPerRun guards in the
// tests can pin the path at zero.
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
