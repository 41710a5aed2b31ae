package fft

import (
	"fmt"
	"strings"
)

// Kernel selects the butterfly factorization used inside each staged
// task. All kernels compute the identical DFT over the identical staged
// task decomposition (same Plan, same TaskIndices, same per-stage
// barrier contract) — they differ only in how a task factors its
// 2^v-point group DFTs, trading twiddle loads for butterfly structure:
//
//	KernelRadix2     — the paper's level-by-level radix-2 DIT, bit for
//	                   bit Plan.Transform.
//	KernelRadix4     — fused level pairs as 3-multiply radix-4
//	                   butterflies, with one radix-2 fix-up level first
//	                   when v is odd; ~25% fewer complex multiplies and
//	                   twiddle loads than radix-2.
//	KernelSplitRadix — the split-radix (2/4) recursion, the lowest known
//	                   flop count for power-of-two DFTs.
//	KernelSoARadix2  — radix-2 levels on split real/imag (SoA) planes
//	                   with SIMD codelets (AVX2/NEON) when available.
//	KernelSoARadix4  — the SoA layout with fused radix-4 level pairs;
//	                   see soa.go for layout and dispatch rules.
//
// KernelAuto is not an algorithm: it is the facade's default, which the
// facade replaces by AutoKernel(n) when it builds a plan. This package
// and internal/host never see that Auto; handed Auto directly they run
// KernelRadix2, the staged reference (Concrete).
//
// Every kernel is a pure sequential computation per task, so the host
// engine's guarantee holds per kernel: for a fixed kernel, serial,
// parallel and batched execution are bitwise identical. Outputs of
// *different* kernels agree to rounding (≲1e-12 relative for the sizes
// here), not bitwise — they are genuinely different floating-point
// factorizations of the same DFT.
type Kernel uint8

const (
	// KernelAuto is the facade's default (AutoKernel picks); this
	// package runs it as KernelRadix2.
	KernelAuto Kernel = iota
	// KernelRadix2 is the paper's staged radix-2 DIT path.
	KernelRadix2
	// KernelRadix4 fuses butterfly level pairs into 3-multiply radix-4
	// butterflies (radix-2 fix-up first when a task has an odd number of
	// levels).
	KernelRadix4
	// KernelSplitRadix applies the split-radix 2/4 recursion inside each
	// task group.
	KernelSplitRadix
	// KernelSoARadix2 runs the staged decomposition on split real/imag
	// planes (see soa.go): one pooled deinterleave+bit-reversal pass,
	// SIMD-dispatched radix-2 level codelets (fused radix-4 base for
	// levels 0–1), one reinterleave pass.
	KernelSoARadix2
	// KernelSoARadix4 is the SoA layout with the remaining level pairs
	// fused into 3-multiply radix-4 butterflies — the highest-throughput
	// kernel on AVX2/NEON hardware.
	KernelSoARadix4

	numKernels
)

// ConcreteKernels lists the executable kernels (excluding KernelAuto) in
// a stable order.
func ConcreteKernels() []Kernel {
	return []Kernel{KernelRadix2, KernelRadix4, KernelSplitRadix, KernelSoARadix2, KernelSoARadix4}
}

// SoA reports whether k (after Auto resolution) is one of the
// split-plane kernels, which execute through the SoA pipeline
// (TransformSoA / SoARunPass) rather than per-task RunTaskKernel.
func (k Kernel) SoA() bool {
	c := k.Concrete()
	return c == KernelSoARadix2 || c == KernelSoARadix4
}

// Concrete resolves KernelAuto to the package default (KernelRadix2) and
// returns any concrete kernel unchanged. It is what this package does
// when handed Auto directly — the staged reference — not what a facade
// plan built without WithKernel runs; that is AutoKernel.
func (k Kernel) Concrete() Kernel {
	if k == KernelAuto {
		return KernelRadix2
	}
	return k
}

// autoSoAMin is the length from which AutoKernel answers soa4. Recorded
// ns per transform (EXPERIMENTS "Default kernel: rule vs race"): at
// N ≥ 128 soa4 is fastest with the AVX2 codelets and under -tags noasm
// alike, at N ≤ 32 radix4 is in both, and N = 64 splits the builds —
// soa4 by 8 % with AVX2, radix4 by 40 % without — so one constant for
// both builds sits above 64.
const autoSoAMin = 128

// AutoKernel is the rule the facade resolves KernelAuto by when it
// builds a plan: a pure function of n, the power-of-two length the
// kernel runs on (the transform's own length, a real plan's N/2, a
// Bluestein plan's convolution length, a 2-D plan's row length).
func AutoKernel(n int) Kernel {
	if n >= autoSoAMin {
		return KernelSoARadix4
	}
	return KernelRadix4
}

// Valid reports whether k names a known kernel (including KernelAuto).
func (k Kernel) Valid() bool { return k < numKernels }

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelRadix2:
		return "radix2"
	case KernelRadix4:
		return "radix4"
	case KernelSplitRadix:
		return "splitradix"
	case KernelSoARadix2:
		return "soa2"
	case KernelSoARadix4:
		return "soa4"
	}
	return fmt.Sprintf("kernel(%d)", uint8(k))
}

// ParseKernel maps the String() names (case-insensitive, plus the
// "split-radix" spelling) back to Kernel values.
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return KernelAuto, nil
	case "radix2", "radix-2", "r2":
		return KernelRadix2, nil
	case "radix4", "radix-4", "r4":
		return KernelRadix4, nil
	case "splitradix", "split-radix", "sr":
		return KernelSplitRadix, nil
	case "soa2", "soa-radix2":
		return KernelSoARadix2, nil
	case "soa4", "soa-radix4", "soa":
		return KernelSoARadix4, nil
	}
	return KernelAuto, fmt.Errorf("fft: unknown kernel %q (want auto, radix2, radix4, splitradix, soa2 or soa4)", s)
}

// The higher-radix kernels rest on one identity. A group of stage
// `stage` gathers elements base + k·s (s = Stride, k in [0, 2^v)) and
// applies global butterfly levels L0..L0+v−1, L0 = log2(P)·stage. Peeling
// the group's external structure out of the level twiddles
// ω = W_N[(r + j·s)·2^(LogN−L−1)] (r = group offset = g mod s) leaves
//
//	group(L0, r, s) = DFT_{2^v} ∘ diag(d)     on the gathered buffer,
//
// where DFT_{2^v} is a *standalone* 2^v-point DIT FFT on bit-reversed
// input whose twiddles are W_{2^v}^k = W_N[k·2^(LogN−v)], and the
// premultiply diagonal is d[j] = W_N[(r·bitrev_v(j))·2^(LogN−L0−v)]
// (d[0] = 1; r = 0 makes every d[j] = 1). That standalone DFT can then
// be factored by any algorithm — radix-4 and split-radix below — while
// the staged decomposition, task shapes and memory-balance story stay
// exactly the paper's.

// premultiplyGroup applies the diagonal d[j] above in place. Indices can
// reach [N/2, N); the table only stores half, so those fold through
// W_N^(i+N/2) = −W_N^i. r must be the group offset (caller skips r==0).
func premultiplyGroup(buf, w []complex128, r int64, pshift uint, v int) {
	half := int64(len(w))
	for j := 1; j < len(buf); j++ {
		idx := (r * BitReverse(int64(j), v)) << pshift
		if idx < half {
			buf[j] *= w[idx]
		} else {
			buf[j] *= -w[idx-half]
		}
	}
}

// radix4DIT runs a standalone 2^v-point DIT FFT on buf (bit-reversed
// input order) using 3-multiply radix-4 butterflies on fused level
// pairs; odd v gets one twiddle-free radix-2 level first. Twiddles are
// read from the full table as W_{2^v}^k = w[k<<shift].
func radix4DIT(buf, w []complex128, shift uint, v int) {
	n := len(buf)
	half := len(w)
	ll := 0
	if v&1 == 1 {
		// Level 0 twiddle is W^0 = 1: pure butterfly sweep.
		for k := 0; k < n; k += 2 {
			u, t := buf[k], buf[k+1]
			buf[k], buf[k+1] = u+t, u-t
		}
		ll = 1
	}
	for ; ll < v; ll += 2 {
		m := 1 << ll
		s1 := uint(v-ll-2) + shift // W_{4m}^j stride in the full table
		for base := 0; base < n; base += 4 * m {
			// j = 0: all three twiddles are 1.
			a, b := buf[base], buf[base+m]
			c, d := buf[base+2*m], buf[base+3*m]
			e, f := a+b, a-b
			g, h := c+d, c-d
			buf[base], buf[base+2*m] = e+g, e-g
			buf[base+m] = f + complex(imag(h), -real(h))   // f − i·h
			buf[base+3*m] = f + complex(-imag(h), real(h)) // f + i·h
			for j := 1; j < m; j++ {
				u1 := w[j<<s1]
				u2 := w[j<<(s1+1)]
				var u3 complex128
				if i3 := 3 * j << s1; i3 < half {
					u3 = w[i3]
				} else {
					u3 = -w[i3-half] // W^(i+N/2) = −W^i
				}
				a := buf[base+j]
				b := u2 * buf[base+j+m]
				c := u1 * buf[base+j+2*m]
				d := u3 * buf[base+j+3*m]
				e, f := a+b, a-b
				g, h := c+d, c-d
				buf[base+j], buf[base+j+2*m] = e+g, e-g
				buf[base+j+m] = f + complex(imag(h), -real(h))
				buf[base+j+3*m] = f + complex(-imag(h), real(h))
			}
		}
	}
}

// splitRadixDIT runs a standalone 2^v-point split-radix DIT FFT on buf
// (bit-reversed input order). In that order the recursion is on
// contiguous slices: buf[0:n/2] holds the even-index samples, then the
// index≡1 (mod 4) quarter, then the index≡3 (mod 4) quarter. Twiddles
// are read as W_{2^v}^k = w[k<<shift].
func splitRadixDIT(buf, w []complex128, shift uint, v int) {
	n := len(buf)
	switch v {
	case 0:
		return
	case 1:
		u, t := buf[0], buf[1]
		buf[0], buf[1] = u+t, u-t
		return
	}
	q := n / 4
	splitRadixDIT(buf[:2*q], w, shift+1, v-1)
	splitRadixDIT(buf[2*q:3*q], w, shift+2, v-2)
	splitRadixDIT(buf[3*q:], w, shift+2, v-2)
	half := len(w)
	// k = 0: w1 = w3 = 1.
	{
		t1 := buf[2*q] + buf[3*q]
		t2 := buf[2*q] - buf[3*q]
		u0, u1 := buf[0], buf[q]
		buf[0], buf[2*q] = u0+t1, u0-t1
		buf[q] = u1 + complex(imag(t2), -real(t2))   // u1 − i·t2
		buf[3*q] = u1 + complex(-imag(t2), real(t2)) // u1 + i·t2
	}
	for k := 1; k < q; k++ {
		w1 := w[k<<shift]
		var w3 complex128
		if i3 := 3 * k << shift; i3 < half {
			w3 = w[i3]
		} else {
			w3 = -w[i3-half]
		}
		a := w1 * buf[2*q+k]
		b := w3 * buf[3*q+k]
		t1, t2 := a+b, a-b
		u0, u1 := buf[k], buf[q+k]
		buf[k], buf[2*q+k] = u0+t1, u0-t1
		buf[q+k] = u1 + complex(imag(t2), -real(t2))
		buf[3*q+k] = u1 + complex(-imag(t2), real(t2))
	}
}

// runGroupKernel factors one gathered group buffer with the chosen
// concrete kernel. kern must not be Auto or Radix2 (those route through
// RunTask before reaching here).
func runGroupKernel(buf, w []complex128, cshift uint, v int, kern Kernel) {
	switch kern {
	case KernelRadix4:
		radix4DIT(buf, w, cshift, v)
	case KernelSplitRadix:
		splitRadixDIT(buf, w, cshift, v)
	default:
		panic(fmt.Sprintf("fft: runGroupKernel on %v", kern))
	}
}

// RunTaskKernel is RunTask with a selectable butterfly kernel.
// KernelAuto and KernelRadix2 delegate to RunTask; KernelRadix4 and
// KernelSplitRadix gather each group, fold the stage twiddles in with
// premultiplyGroup, and run the standalone codelet. Stage 0 groups are contiguous, offset-0 slices, so they run
// in place with no gather, scatter or premultiply at all.
//
// The concurrency contract is RunTask's: same-stage tasks touch disjoint
// elements, every goroutine needs its own Scratch, and a fixed kernel is
// bitwise deterministic under any task schedule. It returns the nominal
// radix-2 flop count (TaskFlops) so GFLOPS accounting stays comparable
// across kernels, per the standard 5·N·log2(N) convention.
func (pl *Plan) RunTaskKernel(stage, task int, data, w []complex128, kern Kernel, sc *Scratch) int64 {
	kern = kern.Concrete()
	if kern == KernelRadix2 {
		return pl.RunTask(stage, task, data, w, nil, sc)
	}
	if kern.SoA() {
		// The SoA family works on split planes, not on the interleaved
		// data array; pass execution goes through SoARunPass.
		panic(fmt.Sprintf("fft: RunTaskKernel does not support %v (use SoARunPass)", kern))
	}
	pl.checkTask(stage, task)
	v := pl.Levels(stage)
	gsz := int64(pl.GroupSize(stage))
	s := pl.Stride(stage)
	gpt := pl.GroupsPerTask(stage)
	cshift := uint(pl.LogN - v)                 // codelet: W_{2^v}^k = w[k<<cshift]
	pshift := uint(pl.LogN - pl.LogP*stage - v) // premultiply: see identity above
	for q := 0; q < gpt; q++ {
		g := int64(task)*int64(gpt) + int64(q)
		if s == 1 {
			// Stage 0: group g is data[g·gsz:(g+1)·gsz], offset r = 0.
			runGroupKernel(data[g*gsz:(g+1)*gsz], w, cshift, v, kern)
			continue
		}
		blk, r := g/s, g%s
		base := blk*s*gsz + r
		grp := sc.Buf[:gsz]
		for k := int64(0); k < gsz; k++ {
			grp[k] = data[base+k*s]
		}
		if r != 0 {
			premultiplyGroup(grp, w, r, pshift, v)
		}
		runGroupKernel(grp, w, cshift, v, kern)
		for k := int64(0); k < gsz; k++ {
			data[base+k*s] = grp[k]
		}
	}
	return pl.TaskFlops(stage)
}

// Schedule returns the plan's pass list under kern for the forward or
// inverse transform, building it on first use. w must be Twiddles(pl.N)
// and is retained by the schedule. The scalar kernels run a
// bit-reversal pass and one pass of TasksPerStage tasks per stage,
// bracketed by the conjugation identity's two sweeps for the inverse;
// the SoA kernels run pack, one pass per level sweep, unpack (soa.go),
// with the inverse's sweeps folded into the pack and unpack.
func (pl *Plan) Schedule(w []complex128, kern Kernel, inverse bool) *Schedule {
	if len(w) != pl.N/2 {
		panic(LengthError("twiddle table", len(w), pl.N/2))
	}
	return pl.sched.get(kern, inverse, func(kern Kernel, inverse bool) *Schedule {
		return &Schedule{N: pl.N, Stage: StageLabel(kern), Passes: pl.passes(w, kern, inverse, onData), frame: pl.frameLen(kern)}
	})
}

// frameLen returns the plane length kern's passes need: N for the SoA
// kernels, none for the scalar ones.
func (pl *Plan) frameLen(kern Kernel) int {
	if kern.SoA() {
		return pl.N
	}
	return 0
}

// passes builds the plan's pass list over the array buf selects.
func (pl *Plan) passes(w []complex128, kern Kernel, inverse bool, buf operand) []Pass {
	if kern.SoA() {
		return pl.soaPasses(w, kern, inverse, buf)
	}
	ps := []Pass{{PassBitRev, pl.N, func(st *State, lo, hi int) { bitReverseRange(buf(st), lo, hi, pl.LogN) }}}
	label := StageLabel(kern)
	for stage := 0; stage < pl.NumStages; stage++ {
		ps = append(ps, Pass{label, pl.TasksPerStage, func(st *State, lo, hi int) {
			sc, _ := pl.scratch.Get().(*Scratch)
			if sc == nil {
				sc = NewScratch(pl)
			}
			data := buf(st)
			for task := lo; task < hi; task++ {
				pl.RunTaskKernel(stage, task, data, w, kern, sc)
			}
			pl.scratch.Put(sc)
		}})
	}
	if inverse {
		return inverted(ps, buf, pl.N)
	}
	return ps
}

// TransformKernel runs the forward schedule under kern serially.
// KernelAuto and KernelRadix2 are bit-for-bit Transform.
func (pl *Plan) TransformKernel(data, w []complex128, kern Kernel) {
	pl.Schedule(w, kern, false).Run(data)
}
