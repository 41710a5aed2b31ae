//go:build noasm || (!amd64 && !arm64)

package fft

// Portable build (noasm tag, or an architecture without codelets): the
// SoA kernels run entirely through the pure-Go loops in soa.go. The
// min-size gates are set beyond any real group so the asm stubs below
// are unreachable.
const (
	soaLanes     = 1 << 30
	soaBase4MinN = 1 << 30
)

var (
	soaHasAsm    = false
	soaHasBase4  = false
	soaHasGather = false
	soaAccel     = "generic"
)

func bfly2Asm(re, im, wr, wi *float64, dist, cnt, nblk int) {
	panic("fft: bfly2Asm unavailable in this build")
}

func bfly4Asm(re, im, war, wai, wbr, wbi *float64, dist, cnt, nblk int) {
	panic("fft: bfly4Asm unavailable in this build")
}

func base4Asm(re, im *float64, n int, tw *float64) {
	panic("fft: base4Asm unavailable in this build")
}

func gather4Asm(runs *complex128, ld, rows int, out *[8]*float64, sign float64) {
	panic("fft: gather4Asm unavailable in this build")
}
