//go:build amd64 && !noasm

package fft

// Runtime CPU-feature detection for the AVX2+FMA codelets, done with a
// hand-rolled CPUID/XGETBV pair (the module is dependency-free, so no
// golang.org/x/sys/cpu). The codelets need AVX2, FMA3, and an OS that
// saves the YMM state (OSXSAVE + XCR0 bits 1–2).

// soaLanes is the codelet vector width in doubles (one YMM register).
// The asm engages only when a run's dist and cnt are multiples of it;
// pass units are lane-aligned by construction, so the same stage never
// mixes asm and generic arithmetic.
const (
	soaLanes     = 4
	soaBase4MinN = 16 // 4 quads per transposed block
)

var soaHasAsm = detectAVX2FMA()

var soaHasBase4 = soaHasAsm

var soaHasGather = soaHasAsm

var soaHasStore = soaHasAsm

// soaAccel names the active acceleration for introspection and tests.
var soaAccel = func() string {
	if soaHasAsm {
		return "avx2+fma"
	}
	return "generic"
}()

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
	)
	if c1&fma == 0 || c1&osxsave == 0 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	if b7&(1<<5) == 0 { // AVX2
		return false
	}
	xcr0, _ := xgetbv0()
	return xcr0&0x6 == 0x6 // XMM and YMM state enabled by the OS
}

// Implemented in soa_amd64.s.

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func bfly2Asm(re, im, wr, wi *float64, dist, cnt, nblk int)

//go:noescape
func bfly4Asm(re, im, war, wai, wbr, wbi *float64, dist, cnt, nblk int)

//go:noescape
func bfly4StoreAsm(re, im, war, wai, wbr, wbi *float64, out *complex128, dist, cnt, nblk int, s, neg float64)

//go:noescape
func base4Asm(re, im *float64, n int, tw *float64)

//go:noescape
func gather4Asm(runs *complex128, ld, rows int, out *[8]*float64, sign float64)
