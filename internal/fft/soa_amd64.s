//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA codelets for the SoA kernel family. Calling contract (see
// DESIGN.md): re/im point at the first butterfly's leading element,
// wr/wi (war/wai, wbr/wbi) at its twiddle; the codelet runs nblk
// blocks of stride 2·dist (4·dist for the fused pair), cnt butterflies
// each, partners at +dist (+2·dist, +3·dist). cnt is a multiple of 4
// and dist ≥ 4 elements; cnt = dist gives the classic full-level
// sweep, cnt < dist a lane-aligned j-subrange of one block (used for
// partition tails). Buffers need no alignment (unaligned VMOVUPD
// throughout); no Go calls, no stack growth (NOSPLIT, $0 frame), no
// pointer writes, so //go:noescape on every declaration is sound.

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func bfly2Asm(re, im, wr, wi *float64, dist, cnt, nblk int)
//
// nblk blocks of radix-2 butterflies (a, b) at distance dist with
// twiddle w[j], j < cnt, block stride 2·dist:
//	t = w·b ; b' = a − t ; a' = a + t
// 4 butterflies per iteration (one YMM of doubles).
TEXT ·bfly2Asm(SB), NOSPLIT, $0-56
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ wr+16(FP), R8
	MOVQ wi+24(FP), R9
	MOVQ dist+32(FP), R10
	SHLQ $3, R10            // dist in bytes
	MOVQ cnt+40(FP), CX
	SHLQ $3, CX             // cnt in bytes
	MOVQ nblk+48(FP), R11
	MOVQ R10, R13
	SHLQ $1, R13            // block stride: 2·dist bytes

bfly2_blk:
	LEAQ (DI)(R10*1), AX    // &re[k+dist]
	LEAQ (SI)(R10*1), BX    // &im[k+dist]
	XORQ R12, R12           // j bytes

bfly2_inner:
	VMOVUPD (R8)(R12*1), Y0 // wr[j]
	VMOVUPD (R9)(R12*1), Y1 // wi[j]
	VMOVUPD (DI)(R12*1), Y2 // ar
	VMOVUPD (SI)(R12*1), Y3 // ai
	VMOVUPD (AX)(R12*1), Y4 // br
	VMOVUPD (BX)(R12*1), Y5 // bi

	VMULPD       Y4, Y0, Y6 // wr·br
	VFNMADD231PD Y5, Y1, Y6 // tr = wr·br − wi·bi
	VMULPD       Y5, Y0, Y7 // wr·bi
	VFMADD231PD  Y4, Y1, Y7 // ti = wr·bi + wi·br

	VSUBPD Y6, Y2, Y8       // br' = ar − tr
	VADDPD Y6, Y2, Y2       // ar' = ar + tr
	VSUBPD Y7, Y3, Y9
	VADDPD Y7, Y3, Y3

	VMOVUPD Y2, (DI)(R12*1)
	VMOVUPD Y3, (SI)(R12*1)
	VMOVUPD Y8, (AX)(R12*1)
	VMOVUPD Y9, (BX)(R12*1)

	ADDQ $32, R12
	CMPQ R12, CX
	JL   bfly2_inner

	ADDQ R13, DI
	ADDQ R13, SI
	DECQ R11
	JNZ  bfly2_blk

	VZEROUPPER
	RET

// func bfly4Asm(re, im, war, wai, wbr, wbi *float64, dist, cnt, nblk int)
//
// nblk blocks of fused radix-4 level pairs, block stride 4·dist: with
// x0..x3 at distance dist and j < cnt, b1 = wa·x1, b3 = wa·x3,
//	p = x0+b1  q = x0−b1  s = x2+b3  t = x2−b3
//	ws = wb·s  wt = wb·t
//	y0 = p+ws  y2 = p−ws  y1 = q+(wt_i,−wt_r)  y3 = q−(wt_i,−wt_r)
// using the identity w_b[j+dist] = −i·w_b[j].
TEXT ·bfly4Asm(SB), NOSPLIT, $0-72
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ war+16(FP), R8
	MOVQ wai+24(FP), R9
	MOVQ wbr+32(FP), R10
	MOVQ wbi+40(FP), R11
	MOVQ dist+48(FP), R13
	SHLQ $3, R13            // dist in bytes
	MOVQ cnt+56(FP), R12
	SHLQ $3, R12            // cnt in bytes
	MOVQ nblk+64(FP), CX

bfly4_blk:
	XORQ BX, BX             // j bytes

bfly4_inner:
	VMOVUPD (R8)(BX*1), Y0   // war
	VMOVUPD (R9)(BX*1), Y1   // wai
	VMOVUPD (R10)(BX*1), Y2  // wbr
	VMOVUPD (R11)(BX*1), Y3  // wbi

	LEAQ    (DI)(BX*1), AX   // &re[k+j]
	VMOVUPD (AX), Y4         // x0r
	VMOVUPD (AX)(R13*1), Y6  // x1r
	VMOVUPD (AX)(R13*2), Y8  // x2r
	LEAQ    (AX)(R13*1), DX
	VMOVUPD (DX)(R13*2), Y10 // x3r
	LEAQ    (SI)(BX*1), AX   // &im[k+j]
	VMOVUPD (AX), Y5         // x0i
	VMOVUPD (AX)(R13*1), Y7  // x1i
	VMOVUPD (AX)(R13*2), Y9  // x2i
	LEAQ    (AX)(R13*1), DX
	VMOVUPD (DX)(R13*2), Y11 // x3i

	VMULPD       Y6, Y0, Y12  // b1r = war·x1r − wai·x1i
	VFNMADD231PD Y7, Y1, Y12
	VMULPD       Y7, Y0, Y13  // b1i = war·x1i + wai·x1r
	VFMADD231PD  Y6, Y1, Y13
	VMULPD       Y10, Y0, Y6  // b3r
	VFNMADD231PD Y11, Y1, Y6
	VMULPD       Y11, Y0, Y7  // b3i
	VFMADD231PD  Y10, Y1, Y7

	VADDPD Y12, Y4, Y0        // pr
	VSUBPD Y12, Y4, Y4        // qr
	VADDPD Y13, Y5, Y1        // pi
	VSUBPD Y13, Y5, Y5        // qi
	VADDPD Y6, Y8, Y10        // sr
	VSUBPD Y6, Y8, Y8         // tr
	VADDPD Y7, Y9, Y11        // si
	VSUBPD Y7, Y9, Y9         // ti

	VMULPD       Y10, Y2, Y12 // wsr
	VFNMADD231PD Y11, Y3, Y12
	VMULPD       Y11, Y2, Y13 // wsi
	VFMADD231PD  Y10, Y3, Y13
	VMULPD       Y8, Y2, Y6   // wtr
	VFNMADD231PD Y9, Y3, Y6
	VMULPD       Y9, Y2, Y7   // wti
	VFMADD231PD  Y8, Y3, Y7

	VADDPD Y12, Y0, Y10       // y0r = pr + wsr
	VSUBPD Y12, Y0, Y0        // y2r
	VADDPD Y13, Y1, Y11       // y0i
	VSUBPD Y13, Y1, Y1        // y2i
	VADDPD Y7, Y4, Y8         // y1r = qr + wti
	VSUBPD Y7, Y4, Y9         // y3r
	VSUBPD Y6, Y5, Y2         // y1i = qi − wtr
	VADDPD Y6, Y5, Y3         // y3i

	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y10, (AX)
	VMOVUPD Y8, (AX)(R13*1)
	VMOVUPD Y0, (AX)(R13*2)
	LEAQ    (AX)(R13*1), DX
	VMOVUPD Y9, (DX)(R13*2)
	LEAQ    (SI)(BX*1), AX
	VMOVUPD Y11, (AX)
	VMOVUPD Y2, (AX)(R13*1)
	VMOVUPD Y1, (AX)(R13*2)
	LEAQ    (AX)(R13*1), DX
	VMOVUPD Y3, (DX)(R13*2)

	ADDQ $32, BX
	CMPQ BX, R12
	JL   bfly4_inner

	LEAQ (DI)(R13*4), DI
	LEAQ (SI)(R13*4), SI
	DECQ CX
	JNZ  bfly4_blk

	VZEROUPPER
	RET

// func bfly4StoreAsm(re, im, war, wai, wbr, wbi *float64, out *complex128, dist, cnt, nblk int, s, neg float64)
//
// bfly4Asm's storing twin, for the last sweep of a transform: the same
// loads and arithmetic, instruction for instruction, but y0..y3 go to
// out — the caller's interleaved array, element k at out + 16·k where
// the planes hold it at re/im + 8·k — instead of back into the planes,
// each as (y_r·s, (y_i ^ neg)·s). With s = 1, neg = +0 that is a plain
// store (×1 and ^+0 are exact); with s = 1/N, neg = −0 it is the
// inverse's conj(y)/N, bit for bit UnpackConjScale's −y_i·s. Every
// output is two 4×4 half-transposes: (r0 r1 r2 r3), (i0 i1 i2 i3) →
// (r0 i0 r1 i1), (r2 i2 r3 i3). R14 holds out: this is an ABI0
// function, whose wrapper restores g on return.
TEXT ·bfly4StoreAsm(SB), NOSPLIT, $0-96
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ war+16(FP), R8
	MOVQ wai+24(FP), R9
	MOVQ wbr+32(FP), R10
	MOVQ wbi+40(FP), R11
	MOVQ out+48(FP), R14
	MOVQ dist+56(FP), R13
	SHLQ $3, R13            // dist in bytes of a plane
	MOVQ cnt+64(FP), R12
	SHLQ $3, R12            // cnt in bytes of a plane
	MOVQ nblk+72(FP), CX
	VBROADCASTSD s+80(FP), Y14
	VBROADCASTSD neg+88(FP), Y15

store4_blk:
	XORQ BX, BX             // j bytes of a plane

store4_inner:
	VMOVUPD (R8)(BX*1), Y0   // war
	VMOVUPD (R9)(BX*1), Y1   // wai
	VMOVUPD (R10)(BX*1), Y2  // wbr
	VMOVUPD (R11)(BX*1), Y3  // wbi

	LEAQ    (DI)(BX*1), AX   // &re[k+j]
	VMOVUPD (AX), Y4         // x0r
	VMOVUPD (AX)(R13*1), Y6  // x1r
	VMOVUPD (AX)(R13*2), Y8  // x2r
	LEAQ    (AX)(R13*1), DX
	VMOVUPD (DX)(R13*2), Y10 // x3r
	LEAQ    (SI)(BX*1), AX   // &im[k+j]
	VMOVUPD (AX), Y5         // x0i
	VMOVUPD (AX)(R13*1), Y7  // x1i
	VMOVUPD (AX)(R13*2), Y9  // x2i
	LEAQ    (AX)(R13*1), DX
	VMOVUPD (DX)(R13*2), Y11 // x3i

	VMULPD       Y6, Y0, Y12  // b1r = war·x1r − wai·x1i
	VFNMADD231PD Y7, Y1, Y12
	VMULPD       Y7, Y0, Y13  // b1i = war·x1i + wai·x1r
	VFMADD231PD  Y6, Y1, Y13
	VMULPD       Y10, Y0, Y6  // b3r
	VFNMADD231PD Y11, Y1, Y6
	VMULPD       Y11, Y0, Y7  // b3i
	VFMADD231PD  Y10, Y1, Y7

	VADDPD Y12, Y4, Y0        // pr
	VSUBPD Y12, Y4, Y4        // qr
	VADDPD Y13, Y5, Y1        // pi
	VSUBPD Y13, Y5, Y5        // qi
	VADDPD Y6, Y8, Y10        // sr
	VSUBPD Y6, Y8, Y8         // tr
	VADDPD Y7, Y9, Y11        // si
	VSUBPD Y7, Y9, Y9         // ti

	VMULPD       Y10, Y2, Y12 // wsr
	VFNMADD231PD Y11, Y3, Y12
	VMULPD       Y11, Y2, Y13 // wsi
	VFMADD231PD  Y10, Y3, Y13
	VMULPD       Y8, Y2, Y6   // wtr
	VFNMADD231PD Y9, Y3, Y6
	VMULPD       Y9, Y2, Y7   // wti
	VFMADD231PD  Y8, Y3, Y7

	VADDPD Y12, Y0, Y10       // y0r = pr + wsr
	VSUBPD Y12, Y0, Y0        // y2r
	VADDPD Y13, Y1, Y11       // y0i
	VSUBPD Y13, Y1, Y1        // y2i
	VADDPD Y7, Y4, Y8         // y1r = qr + wti
	VSUBPD Y7, Y4, Y9         // y3r
	VSUBPD Y6, Y5, Y2         // y1i = qi − wtr
	VADDPD Y6, Y5, Y3         // y3i

	VMULPD Y14, Y10, Y10      // y_r·s
	VMULPD Y14, Y8, Y8
	VMULPD Y14, Y0, Y0
	VMULPD Y14, Y9, Y9
	VXORPD Y15, Y11, Y11      // (y_i ^ neg)·s
	VMULPD Y14, Y11, Y11
	VXORPD Y15, Y2, Y2
	VMULPD Y14, Y2, Y2
	VXORPD Y15, Y1, Y1
	VMULPD Y14, Y1, Y1
	VXORPD Y15, Y3, Y3
	VMULPD Y14, Y3, Y3

	LEAQ       (R14)(BX*2), AX  // &out[k+j]
	VUNPCKLPD  Y11, Y10, Y4     // y0: r0 i0 r2 i2
	VUNPCKHPD  Y11, Y10, Y5     //     r1 i1 r3 i3
	VPERM2F128 $0x20, Y5, Y4, Y6
	VPERM2F128 $0x31, Y5, Y4, Y7
	VMOVUPD    Y6, (AX)
	VMOVUPD    Y7, 32(AX)
	VUNPCKLPD  Y2, Y8, Y4       // y1 at +dist
	VUNPCKHPD  Y2, Y8, Y5
	VPERM2F128 $0x20, Y5, Y4, Y6
	VPERM2F128 $0x31, Y5, Y4, Y7
	VMOVUPD    Y6, (AX)(R13*2)
	VMOVUPD    Y7, 32(AX)(R13*2)
	VUNPCKLPD  Y1, Y0, Y4       // y2 at +2·dist
	VUNPCKHPD  Y1, Y0, Y5
	VPERM2F128 $0x20, Y5, Y4, Y6
	VPERM2F128 $0x31, Y5, Y4, Y7
	VMOVUPD    Y6, (AX)(R13*4)
	VMOVUPD    Y7, 32(AX)(R13*4)
	LEAQ       (AX)(R13*4), DX
	VUNPCKLPD  Y3, Y9, Y4       // y3 at +3·dist
	VUNPCKHPD  Y3, Y9, Y5
	VPERM2F128 $0x20, Y5, Y4, Y6
	VPERM2F128 $0x31, Y5, Y4, Y7
	VMOVUPD    Y6, (DX)(R13*2)
	VMOVUPD    Y7, 32(DX)(R13*2)

	ADDQ $32, BX
	CMPQ BX, R12
	JL   store4_inner

	LEAQ (DI)(R13*4), DI
	LEAQ (SI)(R13*4), SI
	LEAQ (R14)(R13*8), R14
	DECQ CX
	JNZ  store4_blk

	VZEROUPPER
	RET

// func base4Asm(re, im *float64, n int, tw *float64)
//
// The fused levels-0-and-1 radix-4 pass on consecutive quads, with
// scalar (broadcast) twiddles tw = [war, wai, wbr, wbi]. Processes 4
// quads (16 elements) per iteration via 4×4 double transposes so the
// quad butterfly runs element-parallel across lanes; n must be a
// multiple of 16 (the wrapper peels the tail).
TEXT ·base4Asm(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX              // 16-element iterations
	MOVQ tw+24(FP), R8
	VBROADCASTSD (R8), Y12   // war
	VBROADCASTSD 8(R8), Y13  // wai
	VBROADCASTSD 16(R8), Y14 // wbr
	VBROADCASTSD 24(R8), Y15 // wbi

base4_loop:
	TESTQ CX, CX
	JZ    base4_done

	// Load 16 re, transpose quads into lanes: x_j[q] = re[4q+j].
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMOVUPD    96(DI), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0 // x0r
	VPERM2F128 $0x20, Y7, Y5, Y1 // x1r
	VPERM2F128 $0x31, Y6, Y4, Y2 // x2r
	VPERM2F128 $0x31, Y7, Y5, Y3 // x3r

	VMOVUPD    (SI), Y4
	VMOVUPD    32(SI), Y5
	VMOVUPD    64(SI), Y6
	VMOVUPD    96(SI), Y7
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4 // x0i
	VPERM2F128 $0x20, Y11, Y9, Y5 // x1i
	VPERM2F128 $0x31, Y10, Y8, Y6 // x2i
	VPERM2F128 $0x31, Y11, Y9, Y7 // x3i

	VMULPD       Y1, Y12, Y8  // b1r
	VFNMADD231PD Y5, Y13, Y8
	VMULPD       Y5, Y12, Y9  // b1i
	VFMADD231PD  Y1, Y13, Y9
	VADDPD       Y8, Y0, Y1   // pr
	VSUBPD       Y8, Y0, Y0   // qr
	VADDPD       Y9, Y4, Y5   // pi
	VSUBPD       Y9, Y4, Y4   // qi

	VMULPD       Y3, Y12, Y8  // b3r
	VFNMADD231PD Y7, Y13, Y8
	VMULPD       Y7, Y12, Y9  // b3i
	VFMADD231PD  Y3, Y13, Y9
	VADDPD       Y8, Y2, Y3   // sr
	VSUBPD       Y8, Y2, Y2   // tr
	VADDPD       Y9, Y6, Y7   // si
	VSUBPD       Y9, Y6, Y6   // ti

	VMULPD       Y3, Y14, Y8  // wsr
	VFNMADD231PD Y7, Y15, Y8
	VMULPD       Y7, Y14, Y9  // wsi
	VFMADD231PD  Y3, Y15, Y9
	VMULPD       Y2, Y14, Y10 // wtr
	VFNMADD231PD Y6, Y15, Y10
	VMULPD       Y6, Y14, Y11 // wti
	VFMADD231PD  Y2, Y15, Y11

	VADDPD Y8, Y1, Y2         // y0r
	VSUBPD Y8, Y1, Y3         // y2r
	VADDPD Y9, Y5, Y6         // y0i
	VSUBPD Y9, Y5, Y7         // y2i
	VADDPD Y11, Y0, Y8        // y1r = qr + wti
	VSUBPD Y11, Y0, Y9        // y3r
	VSUBPD Y10, Y4, Y0        // y1i = qi − wtr
	VADDPD Y10, Y4, Y11       // y3i

	// Transpose back and store: re rows {y0r,y1r,y2r,y3r} = {Y2,Y8,Y3,Y9}.
	VUNPCKLPD  Y8, Y2, Y1
	VUNPCKHPD  Y8, Y2, Y4
	VUNPCKLPD  Y9, Y3, Y5
	VUNPCKHPD  Y9, Y3, Y10
	VPERM2F128 $0x20, Y5, Y1, Y2
	VPERM2F128 $0x20, Y10, Y4, Y8
	VPERM2F128 $0x31, Y5, Y1, Y3
	VPERM2F128 $0x31, Y10, Y4, Y9
	VMOVUPD    Y2, (DI)
	VMOVUPD    Y8, 32(DI)
	VMOVUPD    Y3, 64(DI)
	VMOVUPD    Y9, 96(DI)

	// im rows {y0i,y1i,y2i,y3i} = {Y6,Y0,Y7,Y11}.
	VUNPCKLPD  Y0, Y6, Y1
	VUNPCKHPD  Y0, Y6, Y4
	VUNPCKLPD  Y11, Y7, Y5
	VUNPCKHPD  Y11, Y7, Y10
	VPERM2F128 $0x20, Y5, Y1, Y2
	VPERM2F128 $0x20, Y10, Y4, Y8
	VPERM2F128 $0x31, Y5, Y1, Y3
	VPERM2F128 $0x31, Y10, Y4, Y9
	VMOVUPD    Y2, (SI)
	VMOVUPD    Y8, 32(SI)
	VMOVUPD    Y3, 64(SI)
	VMOVUPD    Y9, 96(SI)

	ADDQ $128, DI
	ADDQ $128, SI
	DECQ CX
	JMP  base4_loop

base4_done:
	VZEROUPPER
	RET

// func gather4Asm(runs *complex128, ld, rows int, out *[8]*float64, sign float64)
//
// The tiled packs' strided half for four columns: rows staged rows of
// ld complex values start at runs (row a at runs + a·ld), and column k
// ∈ 0..3 of them goes to out[2k] (real parts) and out[2k+1] (imaginary
// parts, times sign), element a at offset a. Four rows per iteration: a
// row's four values are two YMM loads, and two 4×4 transposes (the
// base4Asm shuffle) turn the sixteen values into one vector per output.
// rows must be a positive multiple of 4 (the wrapper peels the tail).
// A pure move but for the multiply by ±1, so bit for bit the Go loop.
TEXT ·gather4Asm(SB), NOSPLIT, $0-40
	MOVQ runs+0(FP), SI
	MOVQ ld+8(FP), DX
	SHLQ $4, DX              // row stride in bytes
	MOVQ rows+16(FP), CX
	SHRQ $2, CX              // 4-row iterations
	MOVQ out+24(FP), DI
	VBROADCASTSD sign+32(FP), Y15
	XORQ AX, AX              // output offset in bytes

gather4_loop:
	LEAQ    (SI)(DX*2), R8   // row a+2
	VMOVUPD (SI), Y0         // row a: r0 i0 r1 i1
	VMOVUPD 32(SI), Y1       // row a: r2 i2 r3 i3
	VMOVUPD (SI)(DX*1), Y2   // row a+1
	VMOVUPD 32(SI)(DX*1), Y3
	VMOVUPD (R8), Y4         // row a+2
	VMOVUPD 32(R8), Y5
	VMOVUPD (R8)(DX*1), Y6   // row a+3
	VMOVUPD 32(R8)(DX*1), Y7

	VUNPCKLPD  Y2, Y0, Y8         // ra0 rb0 ra1 rb1
	VUNPCKHPD  Y2, Y0, Y9         // ia0 ib0 ia1 ib1
	VUNPCKLPD  Y6, Y4, Y10        // rc0 rd0 rc1 rd1
	VUNPCKHPD  Y6, Y4, Y11        // ic0 id0 ic1 id1
	VPERM2F128 $0x20, Y10, Y8, Y0 // column 0 re
	VPERM2F128 $0x31, Y10, Y8, Y2 // column 1 re
	VPERM2F128 $0x20, Y11, Y9, Y4 // column 0 im
	VPERM2F128 $0x31, Y11, Y9, Y6 // column 1 im
	VUNPCKLPD  Y3, Y1, Y8
	VUNPCKHPD  Y3, Y1, Y9
	VUNPCKLPD  Y7, Y5, Y10
	VUNPCKHPD  Y7, Y5, Y11
	VPERM2F128 $0x20, Y10, Y8, Y1 // column 2 re
	VPERM2F128 $0x31, Y10, Y8, Y3 // column 3 re
	VPERM2F128 $0x20, Y11, Y9, Y5 // column 2 im
	VPERM2F128 $0x31, Y11, Y9, Y7 // column 3 im
	VMULPD     Y15, Y4, Y4
	VMULPD     Y15, Y6, Y6
	VMULPD     Y15, Y5, Y5
	VMULPD     Y15, Y7, Y7

	MOVQ    0(DI), BX
	VMOVUPD Y0, (BX)(AX*1)
	MOVQ    8(DI), BX
	VMOVUPD Y4, (BX)(AX*1)
	MOVQ    16(DI), BX
	VMOVUPD Y2, (BX)(AX*1)
	MOVQ    24(DI), BX
	VMOVUPD Y6, (BX)(AX*1)
	MOVQ    32(DI), BX
	VMOVUPD Y1, (BX)(AX*1)
	MOVQ    40(DI), BX
	VMOVUPD Y5, (BX)(AX*1)
	MOVQ    48(DI), BX
	VMOVUPD Y3, (BX)(AX*1)
	MOVQ    56(DI), BX
	VMOVUPD Y7, (BX)(AX*1)

	ADDQ $32, AX
	LEAQ (SI)(DX*4), SI
	DECQ CX
	JNZ  gather4_loop

	VZEROUPPER
	RET
