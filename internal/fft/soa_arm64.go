//go:build arm64 && !noasm

package fft

// NEON is baseline on arm64, so the radix-2 and fused radix-4 level
// codelets are always available — no runtime feature probe. The fused
// base pass (levels 0–1) and the packs' column gather stay in Go on
// arm64: their 4×4 transpose formulation buys much less at 2-wide
// vectors than at 4-wide, and the compiler already emits scalar FMAs
// for the generic base loop.
const (
	soaLanes     = 2       // 2 doubles per NEON register
	soaBase4MinN = 1 << 30 // never: base pass runs the generic loop
)

var (
	soaHasAsm    = true
	soaHasBase4  = false
	soaHasGather = false
	soaAccel     = "neon"
)

// Implemented in soa_arm64.s.

//go:noescape
func bfly2Asm(re, im, wr, wi *float64, dist, cnt, nblk int)

//go:noescape
func bfly4Asm(re, im, war, wai, wbr, wbi *float64, dist, cnt, nblk int)

func base4Asm(re, im *float64, n int, tw *float64) {
	panic("fft: base4Asm is not implemented on arm64")
}

func gather4Asm(runs *complex128, ld, rows int, out *[8]*float64, sign float64) {
	panic("fft: gather4Asm is not implemented on arm64")
}
