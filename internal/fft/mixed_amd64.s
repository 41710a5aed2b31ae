//go:build amd64 && !noasm

#include "textflag.h"

// AVX codelets for the mixed-radix Stockham stages (mixedradix.go), on
// interleaved complex128: a YMM register holds two complex numbers as
// (re, im, re, im). They are bit for bit the Go codelets pass2 … pass5,
// because they repeat Go's complex arithmetic op for op, with no FMA:
//
//	x·w   (xr·wr − xi·wi, xi·wr + xr·wi): VMULPD by (wr, wr), VPERMILPD $5
//	      (swap re and im), VMULPD by (wi, wi), VADDSUBPD — CMUL below.
//	c·x   for a real constant c is two real products, (c·xr, c·xi): one
//	      VMULPD by c broadcast. The Go codelets spell it so (rmul), not
//	      as Go's complex product by complex(c, 0), whose 0·x terms
//	      change a result only where c·xr or c·xi is ±0 or an input is
//	      Inf or NaN.
//	−i·x  (xi, −xr): a swap and a sign XOR, NEGI.
//
// Sums and products of two operands commute exactly, so only the order
// of a subtraction and of a chain of sums is Go's to keep. A NaN may
// carry another payload than Go's (x86 propagates the first operand's);
// it stays a NaN. Inputs are XORed with (+0, neg) as they load when neg
// is −0 (the inverse's leading conjugation); a nonzero scale stores
// conj(y)·scale as (y XOR (+0, −0))·scale, conjugateScale's −yi·s.
// An operand v (stageEdge's in or out) multiplies per lane, each
// complex of a register by its own v: x·v is CMUL with (vr, vr) and
// (vi, vi) split from the loaded pair, computed in place (CMULV). The
// operand is addressed as the data it multiplies, at a fixed byte
// distance R14 from it. Buffers need no alignment. No Go calls, no
// stack frame, no pointer writes: //go:noescape is sound.

DATA mixedNegIm<>+0(SB)/8, $0x0000000000000000
DATA mixedNegIm<>+8(SB)/8, $0x8000000000000000
DATA mixedNegIm<>+16(SB)/8, $0x0000000000000000
DATA mixedNegIm<>+24(SB)/8, $0x8000000000000000
GLOBL mixedNegIm<>(SB), RODATA|NOPTR, $32

DATA mixedOne<>+0(SB)/8, $1.0
GLOBL mixedOne<>(SB), RODATA|NOPTR, $8

DATA mixedHalf<>+0(SB)/8, $0.5
DATA mixedHalf<>+8(SB)/8, $0.5
DATA mixedHalf<>+16(SB)/8, $0.5
DATA mixedHalf<>+24(SB)/8, $0.5
GLOBL mixedHalf<>(SB), RODATA|NOPTR, $32

// (√3/2, −√3/2): the radix-3 codelet's −i·(√3/2)·t is swap(t) times it.
DATA mixedSqrt3<>+0(SB)/8, $0.86602540378443864676
DATA mixedSqrt3<>+8(SB)/8, $-0.86602540378443864676
DATA mixedSqrt3<>+16(SB)/8, $0.86602540378443864676
DATA mixedSqrt3<>+24(SB)/8, $-0.86602540378443864676
GLOBL mixedSqrt3<>(SB), RODATA|NOPTR, $32

// cos(2π/5), cos(4π/5), sin(2π/5), sin(4π/5), one scalar each.
DATA mixedRadix5<>+0(SB)/8, $0.30901699437494742410
DATA mixedRadix5<>+8(SB)/8, $-0.80901699437494742410
DATA mixedRadix5<>+16(SB)/8, $0.95105651629515357212
DATA mixedRadix5<>+24(SB)/8, $0.58778525229247312917
GLOBL mixedRadix5<>(SB), RODATA|NOPTR, $32

// out = x·w for w = (wr, wi) broadcast as two registers; t is scratch.
#define CMUL(x, wr, wi, t, out) \
	VMULPD    wr, x, out; \
	VPERMILPD $5, x, t; \
	VMULPD    wi, t, t; \
	VADDSUBPD t, out, out

// x = −i·x.
#define MULNEGI(x) \
	VPERMILPD $5, x, x; \
	VXORPD    Y15, x, x

// x = conj(x)·s for s broadcast in sc.
#define CONJSCALE(x, sc) \
	VXORPD Y15, x, x; \
	VMULPD sc, x, x

// x = x·v for the pair v at (AX)(R14*1), in place; a, b, t are scratch.
#define CMULV(x, a, b, t) \
	VMOVUPD   (AX)(R14*1), b; \
	VMOVDDUP  b, a; \
	VPERMILPD $15, b, b; \
	VPERMILPD $5, x, t; \
	VMULPD    b, t, t; \
	VMULPD    a, x, x; \
	VADDSUBPD t, x, x

// Output lane y of a q-pair codelet with an operand, stored at AX:
// y·v, conj(·)·post when post is nonzero; AX moves on to the next lane.
#define OUTLANE(y, a, b, t, plain) \
	CMULV(y, a, b, t); \
	CMPQ         post+88(FP), $0; \
	JEQ          plain; \
	VBROADCASTSD post+88(FP), a; \
	CONJSCALE(y, a); \
plain: \
	VMOVUPD      y, (AX); \
	ADDQ         R9, AX

// The prologue the four q-pair codelets share: DI dst, SI src, R8 tw,
// R9 S in bytes (input row, output lane), R10 S·M in bytes (input
// lane), DX rows left, R11 pairs per row, R12 neg's bits (nonzero: XOR
// loads with Y14), R13 scale's bits (nonzero: scaled stores), R14 the
// output operand's distance from dst, Y15 NEGI.
#define PAIRS_PROLOGUE \
	MOVQ         dst+0(FP), DI; \
	MOVQ         src+8(FP), SI; \
	MOVQ         tw+16(FP), R8; \
	MOVQ         s+24(FP), R9; \
	SHLQ         $4, R9; \
	MOVQ         sm+32(FP), R10; \
	SHLQ         $4, R10; \
	MOVQ         np+40(FP), DX; \
	MOVQ         nq+48(FP), R11; \
	MOVQ         neg+56(FP), R12; \
	MOVQ         scale+64(FP), R13; \
	MOVQ         v+72(FP), R14; \
	SUBQ         DI, R14; \
	VMOVUPD      mixedNegIm<>(SB), Y15; \
	VBROADCASTSD neg+56(FP), Y14; \
	VXORPD       Y0, Y0, Y0; \
	VBLENDPD     $10, Y14, Y0, Y14

// The fused codelets: two stages of one radix r in a pass (mixedPass in
// mixedradix.go), over rows of fused units p and, in each, pairs of q.
// A row's pairs run in chunks of up to K: stage a's butterflies, row c'
// at a time with that row's twiddles broadcast once, into a tile on the
// stack, [k][c'][d] for pair k of the chunk — then stage b's, output
// row d at a time, so the r store streams of a row fill their lines
// before the next row's start, with the row's stage-b twiddles
// broadcast once per chunk (radix 5 loads both from memory as it goes,
// as mixed5Asm does). The butterflies are BFLY3, BFLY4 and BFLY5, so
// the bits are the single-stage codelets'.
//
// A pair whose stage b is the last (M = 1, one row) may carry its store
// edges: a nonzero scale, or an output operand v laid out as dst whose
// rows j < live store (output (d, d') is row j = d + r·d', S·j elements
// from q). With a scale alone stage b stores CONJSCALE(y) as it goes.
// With an operand it stores into the tile, in place — output d' of its
// unit d where input c' = d' was, so row j of pair k lies at
// k·r²·32 + j·32 — and FUSED_OUT sweeps rows j < live from the tile to
// dst in the single-stage codelets' order: CONJSCALE by scale, then
// OUTLANE's y·v and CONJSCALE by post. Every chunk loads all its rows
// before it stores any, so the pair also runs in place (dst = src).
//
// Registers: DI dst and SI src at the row, R9 S in bytes, DX rows
// left, CX pairs left in the row, BX the chunk's byte offset in it,
// R12 its pair count. Stage a: R14 the twiddles of row c', R11 its
// inputs, AX the pair's, R13 the input lane stride r·S·M in bytes, R10
// the tile, R8 the pairs left. Stage b: AX the chunk's output row d,
// R14 the pair's, R8 the output lane stride r·S in bytes, R10 the
// tile, R11 the pairs left. The 2144-byte frame holds the tile, ≤ 2 KiB
// at a 32-byte boundary, and eight words above it:
#define FUSED_SRC 2080   // S·M·16: row c' + 1 of src from row c'
#define FUSED_TWS 2088   // (r − 1)·M·16: row c' + 1 of a's twiddles
#define FUSED_TWA 2096   // a's twiddles at the row (c' = 0)
#define FUSED_TWB 2104   // b's twiddles at the row
#define FUSED_TILE 2112  // the tile
#define FUSED_LANE 2120  // r·S·M·16
#define FUSED_LIVE 2128  // live·32: a pair's rows in the tile
#define FUSED_ROWS 2136  // FUSED_OUT's end of the pair's rows

// The prologue for radix R: the frame's words, DI, SI, R9, DX.
#define FUSED_PROLOGUE(R) \
	MOVQ   s+32(FP), R9; \
	SHLQ   $4, R9; \
	MOVQ   m+40(FP), AX; \
	IMULQ  R9, AX; \
	MOVQ   AX, FUSED_SRC(SP); \
	IMUL3Q $R, AX, AX; \
	MOVQ   AX, FUSED_LANE(SP); \
	MOVQ   m+40(FP), AX; \
	IMUL3Q $(16*(R-1)), AX, AX; \
	MOVQ   AX, FUSED_TWS(SP); \
	MOVQ   twa+16(FP), AX; \
	MOVQ   AX, FUSED_TWA(SP); \
	MOVQ   twb+24(FP), AX; \
	MOVQ   AX, FUSED_TWB(SP); \
	LEAQ   31(SP), AX; \
	ANDQ   $-32, AX; \
	MOVQ   AX, FUSED_TILE(SP); \
	MOVQ   live+80(FP), AX; \
	SHLQ   $5, AX; \
	MOVQ   AX, FUSED_LIVE(SP); \
	MOVQ   dst+0(FP), DI; \
	MOVQ   src+8(FP), SI; \
	MOVQ   np+48(FP), DX; \
	VMOVUPD mixedNegIm<>(SB), Y15

// The start of a row of fused units.
#define FUSED_ROW(row) \
row: \
	MOVQ nq+56(FP), CX; \
	XORQ BX, BX

// func mixed2Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64)
//
//	y0 = u0 + u1, y1 = (u0 − u1)·w1
TEXT ·mixed2Asm(SB), NOSPLIT, $0-96
	PAIRS_PROLOGUE

r2_row:
	VBROADCASTSD (R8), Y8
	VBROADCASTSD 8(R8), Y9
	MOVQ         R11, CX
	XORQ         BX, BX

r2_q:
	LEAQ    (SI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R10*1), Y1
	TESTQ   R12, R12
	JZ      r2_loaded
	VXORPD  Y14, Y0, Y0
	VXORPD  Y14, Y1, Y1

r2_loaded:
	VADDPD Y1, Y0, Y2
	VSUBPD Y1, Y0, Y0
	CMUL(Y0, Y8, Y9, Y4, Y3)

	LEAQ  (DI)(BX*1), AX
	TESTQ R13, R13
	JZ    r2_store
	VBROADCASTSD scale+64(FP), Y4
	CONJSCALE(Y2, Y4)
	CONJSCALE(Y3, Y4)

r2_store:
	CMPQ    v+72(FP), $0
	JNE     r2_out
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R9*1)

r2_next:
	ADDQ $32, BX
	DECQ CX
	JNZ  r2_q

	ADDQ R9, SI
	LEAQ (DI)(R9*2), DI
	ADDQ $16, R8
	DECQ DX
	JNZ  r2_row
	VZEROUPPER
	RET

r2_out:
	OUTLANE(Y2, Y4, Y5, Y6, r2_plain0)
	CMPQ live+80(FP), $1
	JLE  r2_next
	OUTLANE(Y3, Y4, Y5, Y6, r2_plain1)
	JMP  r2_next

// The radix-3 butterfly on u0..u2 in Y0..Y2, twiddles w1, w2 in
// (Y8, Y9), (Y10, Y11), 0.5 in Y12 and (√3/2, −√3/2) in Y13; y0..y2
// land in Y2, Y4, Y6.
//
//	t1 = u1 + u2, t2 = u1 − u2, m1 = u0 − 0.5·t1, m2 = −i·(√3/2)·t2
//	y0 = u0 + t1, y1 = (m1 + m2)·w1, y2 = (m1 − m2)·w2
#define BFLY3 \
	VADDPD    Y2, Y1, Y3; \
	VSUBPD    Y2, Y1, Y1; \
	VADDPD    Y3, Y0, Y2; \
	VMULPD    Y12, Y3, Y4; \
	VSUBPD    Y4, Y0, Y0; \
	VPERMILPD $5, Y1, Y1; \
	VMULPD    Y13, Y1, Y1; \
	VADDPD    Y1, Y0, Y3; \
	VSUBPD    Y1, Y0, Y0; \
	CMUL(Y3, Y8, Y9, Y5, Y4); \
	CMUL(Y0, Y10, Y11, Y5, Y6)

// func mixed3Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64)
TEXT ·mixed3Asm(SB), NOSPLIT, $0-96
	PAIRS_PROLOGUE
	VMOVUPD mixedHalf<>(SB), Y12
	VMOVUPD mixedSqrt3<>(SB), Y13

r3_row:
	VBROADCASTSD (R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD 24(R8), Y11
	MOVQ         R11, CX
	XORQ         BX, BX

r3_q:
	LEAQ    (SI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R10*1), Y1
	VMOVUPD (AX)(R10*2), Y2
	TESTQ   R12, R12
	JZ      r3_loaded
	VXORPD  Y14, Y0, Y0
	VXORPD  Y14, Y1, Y1
	VXORPD  Y14, Y2, Y2

r3_loaded:
	BFLY3

	LEAQ  (DI)(BX*1), AX
	TESTQ R13, R13
	JZ    r3_store
	VBROADCASTSD scale+64(FP), Y7
	CONJSCALE(Y2, Y7)
	CONJSCALE(Y4, Y7)
	CONJSCALE(Y6, Y7)

r3_store:
	CMPQ    v+72(FP), $0
	JNE     r3_out
	VMOVUPD Y2, (AX)
	VMOVUPD Y4, (AX)(R9*1)
	VMOVUPD Y6, (AX)(R9*2)

r3_next:
	ADDQ $32, BX
	DECQ CX
	JNZ  r3_q

	ADDQ R9, SI
	LEAQ (DI)(R9*2), DI
	ADDQ R9, DI
	ADDQ $32, R8
	DECQ DX
	JNZ  r3_row
	VZEROUPPER
	RET

r3_out:
	OUTLANE(Y2, Y0, Y1, Y3, r3_plain0)
	CMPQ live+80(FP), $1
	JLE  r3_next
	OUTLANE(Y4, Y0, Y1, Y3, r3_plain1)
	CMPQ live+80(FP), $2
	JLE  r3_next
	OUTLANE(Y6, Y0, Y1, Y3, r3_plain2)
	JMP  r3_next

// The radix-4 butterfly on u0..u3 in Y0..Y3, twiddles w1..w3 in
// (Y8, Y9), (Y10, Y11), (Y12, Y13); y0..y3 land in Y2, Y5, Y6, Y7.
//
//	t0 = u0 + u2, t1 = u0 − u2, t2 = u1 + u3, t3 = u1 − u3
//	y0 = t0 + t2, y1 = (t1 − i·t3)·w1, y2 = (t0 − t2)·w2, y3 = (t1 + i·t3)·w3
#define BFLY4 \
	VADDPD Y2, Y0, Y4; \
	VSUBPD Y2, Y0, Y0; \
	VADDPD Y3, Y1, Y5; \
	VSUBPD Y3, Y1, Y1; \
	MULNEGI(Y1); \
	VADDPD Y5, Y4, Y2; \
	VSUBPD Y5, Y4, Y4; \
	VADDPD Y1, Y0, Y3; \
	VSUBPD Y1, Y0, Y0; \
	CMUL(Y3, Y8, Y9, Y6, Y5); \
	CMUL(Y4, Y10, Y11, Y7, Y6); \
	CMUL(Y0, Y12, Y13, Y1, Y7)

// Input lane x of mixed4PairsAsm with an operand, loaded from AX:
// (x XOR (+0, neg))·v; AX moves on to the next lane.
#define INLANE(x) \
	VMOVUPD (AX), x; \
	VXORPD  Y14, x, x; \
	CMULV(x, Y4, Y5, Y6); \
	ADDQ    R10, AX

// func mixed4Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64)
TEXT ·mixed4Asm(SB), NOSPLIT, $0-96
	PAIRS_PROLOGUE

r4_row:
	VBROADCASTSD (R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD 24(R8), Y11
	VBROADCASTSD 32(R8), Y12
	VBROADCASTSD 40(R8), Y13
	MOVQ         R11, CX
	XORQ         BX, BX

r4_q:
	LEAQ    (SI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R10*1), Y1
	VMOVUPD (AX)(R10*2), Y2
	ADDQ    R10, AX
	VMOVUPD (AX)(R10*2), Y3
	TESTQ   R12, R12
	JZ      r4_loaded
	VXORPD  Y14, Y0, Y0
	VXORPD  Y14, Y1, Y1
	VXORPD  Y14, Y2, Y2
	VXORPD  Y14, Y3, Y3

r4_loaded:
	BFLY4

	LEAQ  (DI)(BX*1), AX
	TESTQ R13, R13
	JZ    r4_store
	VBROADCASTSD scale+64(FP), Y1
	CONJSCALE(Y2, Y1)
	CONJSCALE(Y5, Y1)
	CONJSCALE(Y6, Y1)
	CONJSCALE(Y7, Y1)

r4_store:
	CMPQ    v+72(FP), $0
	JNE     r4_out
	VMOVUPD Y2, (AX)
	VMOVUPD Y5, (AX)(R9*1)
	VMOVUPD Y6, (AX)(R9*2)
	ADDQ    R9, AX
	VMOVUPD Y7, (AX)(R9*2)

r4_next:
	ADDQ $32, BX
	DECQ CX
	JNZ  r4_q

	ADDQ R9, SI
	LEAQ (DI)(R9*4), DI
	ADDQ $48, R8
	DECQ DX
	JNZ  r4_row
	VZEROUPPER
	RET

r4_out:
	OUTLANE(Y2, Y0, Y1, Y3, r4_plain0)
	CMPQ live+80(FP), $1
	JLE  r4_next
	OUTLANE(Y5, Y0, Y1, Y3, r4_plain1)
	CMPQ live+80(FP), $2
	JLE  r4_next
	OUTLANE(Y6, Y0, Y1, Y3, r4_plain2)
	CMPQ live+80(FP), $3
	JLE  r4_next
	OUTLANE(Y7, Y0, Y1, Y3, r4_plain3)
	JMP  r4_next

// func mixed4PairsAsm(dst, src, tw *complex128, m, np int, neg, scale float64, v *complex128, live int)
//
// The S = 1 radix-4 stage, two p per iteration: lane 0 of a register
// holds p, lane 1 p + 1. Each lane's twiddle w_d = tw[3p + d − 1] is
// loaded as (w_d(p), w_d(p+1)) and split into its real and imaginary
// parts; the outputs y0..y3 of p and of p + 1 are consecutive, so the
// four result registers are stored as two 2×2 transposes of 128-bit
// halves. With an input operand, lanes c < live (≥ 1) load x·v
// (INLANE) and the rest are +0, read from nowhere.
TEXT ·mixed4PairsAsm(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         tw+16(FP), R8
	MOVQ         m+24(FP), R10
	SHLQ         $4, R10
	MOVQ         np+32(FP), CX
	MOVQ         neg+40(FP), R12
	MOVQ         scale+48(FP), R13
	MOVQ         v+56(FP), R14
	SUBQ         SI, R14
	VMOVUPD      mixedNegIm<>(SB), Y15
	VBROADCASTSD neg+40(FP), Y14
	VXORPD       Y0, Y0, Y0
	VBLENDPD     $10, Y14, Y0, Y14

r4p_loop:
	VMOVUPD     (R8), X9
	VINSERTF128 $1, 48(R8), Y9, Y9
	VMOVDDUP    Y9, Y8
	VPERMILPD   $15, Y9, Y9
	VMOVUPD     16(R8), X11
	VINSERTF128 $1, 64(R8), Y11, Y11
	VMOVDDUP    Y11, Y10
	VPERMILPD   $15, Y11, Y11
	VMOVUPD     32(R8), X13
	VINSERTF128 $1, 80(R8), Y13, Y13
	VMOVDDUP    Y13, Y12
	VPERMILPD   $15, Y13, Y13

	CMPQ    v+56(FP), $0
	JNE     r4p_operand
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R10*1), Y1
	VMOVUPD (SI)(R10*2), Y2
	LEAQ    (SI)(R10*2), AX
	VMOVUPD (AX)(R10*1), Y3
	TESTQ   R12, R12
	JZ      r4p_loaded
	VXORPD  Y14, Y0, Y0
	VXORPD  Y14, Y1, Y1
	VXORPD  Y14, Y2, Y2
	VXORPD  Y14, Y3, Y3

r4p_loaded:
	BFLY4

	TESTQ R13, R13
	JZ    r4p_store
	VBROADCASTSD scale+48(FP), Y1
	CONJSCALE(Y2, Y1)
	CONJSCALE(Y5, Y1)
	CONJSCALE(Y6, Y1)
	CONJSCALE(Y7, Y1)

r4p_store:
	VPERM2F128 $0x20, Y5, Y2, Y0 // y0(p), y1(p)
	VPERM2F128 $0x20, Y7, Y6, Y1 // y2(p), y3(p)
	VPERM2F128 $0x31, Y5, Y2, Y3 // y0(p+1), y1(p+1)
	VPERM2F128 $0x31, Y7, Y6, Y4 // y2(p+1), y3(p+1)
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y3, 64(DI)
	VMOVUPD    Y4, 96(DI)

	ADDQ $32, SI
	ADDQ $128, DI
	ADDQ $96, R8
	DECQ CX
	JNZ  r4p_loop
	VZEROUPPER
	RET

r4p_operand:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	INLANE(Y0)
	CMPQ   live+64(FP), $1
	JLE    r4p_loaded
	INLANE(Y1)
	CMPQ   live+64(FP), $2
	JLE    r4p_loaded
	INLANE(Y2)
	CMPQ   live+64(FP), $3
	JLE    r4p_loaded
	INLANE(Y3)
	JMP    r4p_loaded

// The radix-5 butterfly on u0..u4 in Y0..Y4, c1, c2, s1, s2 in Y8..Y11,
// the twiddles w1..w4 broadcast from (TW) as each is used; y0..y4 land
// in Y13, Y0, Y1, Y2, Y5.
//
//	t1 = u1 + u4, t2 = u2 + u3, t3 = u1 − u4, t4 = u2 − u3
//	m1 = u0 + c1·t1 + c2·t2, m2 = u0 + c2·t1 + c1·t2
//	a = s1·t3 + s2·t4, b = s2·t3 − s1·t4, m3 = −i·a, m4 = −i·b
//	y0 = u0 + t1 + t2, y1 = (m1 + m3)·w1, y2 = (m2 + m4)·w2,
//	y3 = (m2 − m4)·w3, y4 = (m1 − m3)·w4
//
// with c1, c2 = cos(2π/5), cos(4π/5) and s1, s2 = sin(2π/5), sin(4π/5).
#define BFLY5(TW) \
	VADDPD    Y4, Y1, Y5; \
	VSUBPD    Y4, Y1, Y1; \
	VADDPD    Y3, Y2, Y4; \
	VSUBPD    Y3, Y2, Y2; \
	VADDPD    Y5, Y0, Y13; \
	VADDPD    Y4, Y13, Y13; \
	VMULPD    Y8, Y5, Y6; \
	VMULPD    Y9, Y5, Y7; \
	VADDPD    Y6, Y0, Y6; \
	VADDPD    Y7, Y0, Y7; \
	VMULPD    Y9, Y4, Y5; \
	VADDPD    Y5, Y6, Y6; \
	VMULPD    Y8, Y4, Y5; \
	VADDPD    Y5, Y7, Y7; \
	VMULPD    Y10, Y1, Y0; \
	VMULPD    Y11, Y2, Y5; \
	VADDPD    Y5, Y0, Y0; \
	VMULPD    Y11, Y1, Y5; \
	VMULPD    Y10, Y2, Y1; \
	VSUBPD    Y1, Y5, Y5; \
	MULNEGI(Y0); \
	MULNEGI(Y5); \
	VADDPD    Y0, Y6, Y1; \
	VSUBPD    Y0, Y6, Y6; \
	VADDPD    Y5, Y7, Y2; \
	VSUBPD    Y5, Y7, Y7; \
	VBROADCASTSD (TW), Y3; \
	VBROADCASTSD 8(TW), Y4; \
	CMUL(Y1, Y3, Y4, Y5, Y0); \
	VBROADCASTSD 16(TW), Y3; \
	VBROADCASTSD 24(TW), Y4; \
	CMUL(Y2, Y3, Y4, Y5, Y1); \
	VBROADCASTSD 32(TW), Y3; \
	VBROADCASTSD 40(TW), Y4; \
	CMUL(Y7, Y3, Y4, Y5, Y2); \
	VBROADCASTSD 48(TW), Y3; \
	VBROADCASTSD 56(TW), Y4; \
	CMUL(Y6, Y3, Y4, Y7, Y5)

// func mixed5Asm(dst, src, tw *complex128, s, sm, np, nq int, neg, scale float64, v *complex128, live int, post float64)
TEXT ·mixed5Asm(SB), NOSPLIT, $0-96
	PAIRS_PROLOGUE
	VBROADCASTSD mixedRadix5<>+0(SB), Y8
	VBROADCASTSD mixedRadix5<>+8(SB), Y9
	VBROADCASTSD mixedRadix5<>+16(SB), Y10
	VBROADCASTSD mixedRadix5<>+24(SB), Y11

r5_row:
	MOVQ R11, CX
	XORQ BX, BX

r5_q:
	LEAQ    (SI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R10*1), Y1
	VMOVUPD (AX)(R10*2), Y2
	ADDQ    R10, AX
	VMOVUPD (AX)(R10*2), Y3
	ADDQ    R10, AX
	VMOVUPD (AX)(R10*2), Y4
	TESTQ   R12, R12
	JZ      r5_loaded
	VXORPD  Y14, Y0, Y0
	VXORPD  Y14, Y1, Y1
	VXORPD  Y14, Y2, Y2
	VXORPD  Y14, Y3, Y3
	VXORPD  Y14, Y4, Y4

r5_loaded:
	BFLY5(R8)

	LEAQ  (DI)(BX*1), AX
	TESTQ R13, R13
	JZ    r5_store
	VBROADCASTSD scale+64(FP), Y3
	CONJSCALE(Y13, Y3)
	CONJSCALE(Y0, Y3)
	CONJSCALE(Y1, Y3)
	CONJSCALE(Y2, Y3)
	CONJSCALE(Y5, Y3)

r5_store:
	CMPQ    v+72(FP), $0
	JNE     r5_out
	VMOVUPD Y13, (AX)
	VMOVUPD Y0, (AX)(R9*1)
	VMOVUPD Y1, (AX)(R9*2)
	ADDQ    R9, AX
	VMOVUPD Y2, (AX)(R9*2)
	ADDQ    R9, AX
	VMOVUPD Y5, (AX)(R9*2)

r5_next:
	ADDQ $32, BX
	DECQ CX
	JNZ  r5_q

	ADDQ R9, SI
	LEAQ (DI)(R9*4), DI
	ADDQ R9, DI
	ADDQ $64, R8
	DECQ DX
	JNZ  r5_row
	VZEROUPPER
	RET

r5_out:
	OUTLANE(Y13, Y3, Y4, Y6, r5_plain0)
	CMPQ live+80(FP), $1
	JLE  r5_next
	OUTLANE(Y0, Y3, Y4, Y6, r5_plain1)
	CMPQ live+80(FP), $2
	JLE  r5_next
	OUTLANE(Y1, Y3, Y4, Y6, r5_plain2)
	CMPQ live+80(FP), $3
	JLE  r5_next
	OUTLANE(Y2, Y3, Y4, Y6, r5_plain3)
	CMPQ live+80(FP), $4
	JLE  r5_next
	OUTLANE(Y5, Y3, Y4, Y6, r5_plain4)
	JMP  r5_next

// The start of a chunk of at most K pairs, and stage a's registers
// for row c' = 0.
#define FUSED_CHUNK(K, chunk) \
chunk: \
	MOVQ    $K, R12; \
	CMPQ    CX, R12; \
	CMOVQLT CX, R12; \
	MOVQ    FUSED_TWA(SP), R14; \
	LEAQ    (SI)(BX*1), R11; \
	MOVQ    FUSED_LANE(SP), R13

// Stage a's pair loop for row c' = CP at tile offset CP·r·32, after the
// twiddles are in place; then R14 and R11 move to row c' + 1.
#define FUSED_A_LOOP(CP, R, LOADS, BFLY, STORES, loop) \
	MOVQ FUSED_TILE(SP), R10; \
	ADDQ $(CP*R*32), R10; \
	MOVQ R11, AX; \
	MOVQ R12, R8; \
loop: \
	LOADS; \
	BFLY; \
	STORES; \
	ADDQ $32, AX; \
	ADDQ $(R*R*32), R10; \
	DECQ R8; \
	JNZ  loop; \
	ADDQ FUSED_TWS(SP), R14; \
	ADDQ FUSED_SRC(SP), R11

// Stage b's registers: AX dst at the chunk, R8 r·S bytes.
#define FUSED_B_START(R) \
	LEAQ   (DI)(BX*1), AX; \
	IMUL3Q $R, R9, R8

// Stage b's pair loop for output row d = D, its inputs at tile offset
// D·32: the pairs of a row store one after another, so each of its r
// output lines fills before the next row's; then AX moves to row d + 1.
#define FUSED_B_LOOP(D, R, LOADS, BFLY, STORES, loop) \
	MOVQ FUSED_TILE(SP), R10; \
	ADDQ $(D*32), R10; \
	MOVQ AX, R14; \
	MOVQ R12, R11; \
loop: \
	LOADS; \
	BFLY; \
	STORES; \
	ADDQ $32, R14; \
	ADDQ $(R*R*32), R10; \
	DECQ R11; \
	JNZ  loop; \
	ADDQ R9, AX

// Stage b's jumps to its edge paths: to operand with an output operand,
// else to scaled, Y14 the scale broadcast, with a nonzero scale.
#define FUSED_EDGES(operand, scaled) \
	CMPQ         v+72(FP), $0; \
	JNE          operand; \
	CMPQ         scale+64(FP), $0; \
	VBROADCASTSD scale+64(FP), Y14; \
	JNE          scaled

// The store edges of a chunk whose stage b left its outputs in the
// tile: pair by pair, rows j < live, each output y stored at dst + S·j
// as (conj(y)·scale)·v, then conj·post-scaled. A zero scale or post
// takes the XOR mask +0 and the factor 1, which leave y's bits as they
// are (a NaN stays a NaN), so the loop has no branch. Y4, Y6 hold
// scale's mask and factor, Y5, Y7 post's; R8 walks dst's pairs, R13
// the tile's, AX and R10 a pair's rows, R11 counts the pairs, and R14
// is v's distance from dst. v's r² rows are as many streams again as
// the data's, more than the hardware prefetchers follow (a Bluestein
// filter pass ran 1.3× slower without it), so each row's v is
// prefetched 512 bytes ahead of the q.
#define FUSED_OUT(R, pair, row, scaled, posted) \
	VXORPD       Y4, Y4, Y4; \
	VBROADCASTSD mixedOne<>(SB), Y6; \
	CMPQ         scale+64(FP), $0; \
	JEQ          scaled; \
	VMOVUPD      Y15, Y4; \
	VBROADCASTSD scale+64(FP), Y6; \
scaled: \
	VXORPD       Y5, Y5, Y5; \
	VBROADCASTSD mixedOne<>(SB), Y7; \
	CMPQ         post+88(FP), $0; \
	JEQ          posted; \
	VMOVUPD      Y15, Y5; \
	VBROADCASTSD post+88(FP), Y7; \
posted: \
	LEAQ         (DI)(BX*1), R8; \
	MOVQ         FUSED_TILE(SP), R13; \
	MOVQ         v+72(FP), R14; \
	SUBQ         dst+0(FP), R14; \
	MOVQ         R12, R11; \
pair: \
	MOVQ         R13, R10; \
	ADDQ         FUSED_LIVE(SP), R10; \
	MOVQ         R10, FUSED_ROWS(SP); \
	MOVQ         R13, R10; \
	MOVQ         R8, AX; \
row: \
	PREFETCHT0   512(AX)(R14*1); \
	VMOVUPD      (R10), Y0; \
	VXORPD       Y4, Y0, Y0; \
	VMULPD       Y6, Y0, Y0; \
	CMULV(Y0, Y1, Y2, Y3); \
	VXORPD       Y5, Y0, Y0; \
	VMULPD       Y7, Y0, Y0; \
	VMOVUPD      Y0, (AX); \
	ADDQ         R9, AX; \
	ADDQ         $32, R10; \
	CMPQ         R10, FUSED_ROWS(SP); \
	JNE          row; \
	ADDQ         $32, R8; \
	ADDQ         $(R*R*32), R13; \
	DECQ         R11; \
	JNZ          pair

// The end of a chunk (loop) and of a row (row) for radix R, at label
// end.
#define FUSED_END(R, end, chunk, row) \
end: \
	MOVQ   R12, R8; \
	SHLQ   $5, R8; \
	ADDQ   R8, BX; \
	SUBQ   R12, CX; \
	JNZ    chunk; \
	ADDQ   R9, SI; \
	IMUL3Q $(R*R), R9, R8; \
	ADDQ   R8, DI; \
	ADDQ   $(16*(R-1)), FUSED_TWA(SP); \
	ADDQ   $(16*(R-1)), FUSED_TWB(SP); \
	DECQ   DX; \
	JNZ    row; \
	VZEROUPPER; \
	RET

// func mixed33Asm(dst, src, twa, twb *complex128, s, m, np, nq int, scale float64, v *complex128, live int, post float64)
#define LOAD3A \
	VMOVUPD (AX), Y0; \
	VMOVUPD (AX)(R13*1), Y1; \
	VMOVUPD (AX)(R13*2), Y2

#define STORE3A \
	VMOVUPD Y2, (R10); \
	VMOVUPD Y4, 32(R10); \
	VMOVUPD Y6, 64(R10)

#define TW3(TW) \
	VBROADCASTSD (TW), Y8; \
	VBROADCASTSD 8(TW), Y9; \
	VBROADCASTSD 16(TW), Y10; \
	VBROADCASTSD 24(TW), Y11

#define FUSED3_A(CP, loop) \
	TW3(R14); \
	FUSED_A_LOOP(CP, 3, LOAD3A, BFLY3, STORE3A, loop)

#define LOAD3B \
	VMOVUPD (R10), Y0; \
	VMOVUPD 96(R10), Y1; \
	VMOVUPD 192(R10), Y2

#define STORE3B \
	VMOVUPD Y2, (R14); \
	VMOVUPD Y4, (R14)(R8*1); \
	VMOVUPD Y6, (R14)(R8*2)

// Stage b's outputs conj·scaled by Y14 as they store.
#define STORE3S \
	CONJSCALE(Y2, Y14); \
	CONJSCALE(Y4, Y14); \
	CONJSCALE(Y6, Y14); \
	STORE3B

// Stage b's outputs back into the tile, where its inputs were.
#define STORE3T \
	VMOVUPD Y2, (R10); \
	VMOVUPD Y4, 96(R10); \
	VMOVUPD Y6, 192(R10)

TEXT ·mixed33Asm(SB), $2144-96
	FUSED_PROLOGUE(3)
	VMOVUPD mixedHalf<>(SB), Y12
	VMOVUPD mixedSqrt3<>(SB), Y13
	FUSED_ROW(f3_row)
	FUSED_CHUNK(4, f3_chunk)
	FUSED3_A(0, f3_a0)
	FUSED3_A(1, f3_a1)
	FUSED3_A(2, f3_a2)
	FUSED_B_START(3)
	MOVQ FUSED_TWB(SP), R14
	TW3(R14)
	FUSED_EDGES(f3_operand, f3_scaled)
	FUSED_B_LOOP(0, 3, LOAD3B, BFLY3, STORE3B, f3_b0)
	FUSED_B_LOOP(1, 3, LOAD3B, BFLY3, STORE3B, f3_b1)
	FUSED_B_LOOP(2, 3, LOAD3B, BFLY3, STORE3B, f3_b2)
	FUSED_END(3, f3_end, f3_chunk, f3_row)

f3_scaled:
	FUSED_B_LOOP(0, 3, LOAD3B, BFLY3, STORE3S, f3_s0)
	FUSED_B_LOOP(1, 3, LOAD3B, BFLY3, STORE3S, f3_s1)
	FUSED_B_LOOP(2, 3, LOAD3B, BFLY3, STORE3S, f3_s2)
	JMP f3_end

f3_operand:
	FUSED_B_LOOP(0, 3, LOAD3B, BFLY3, STORE3T, f3_t0)
	FUSED_B_LOOP(1, 3, LOAD3B, BFLY3, STORE3T, f3_t1)
	FUSED_B_LOOP(2, 3, LOAD3B, BFLY3, STORE3T, f3_t2)
	FUSED_OUT(3, f3_opair, f3_orow, f3_oscaled, f3_oposted)
	JMP f3_end

// func mixed44Asm(dst, src, twa, twb *complex128, s, m, np, nq int, scale float64, v *complex128, live int, post float64)
#define LOAD4A \
	VMOVUPD (AX), Y0; \
	VMOVUPD (AX)(R13*1), Y1; \
	VMOVUPD (AX)(R13*2), Y2; \
	ADDQ    R13, AX; \
	VMOVUPD (AX)(R13*2), Y3; \
	SUBQ    R13, AX

#define STORE4A \
	VMOVUPD Y2, (R10); \
	VMOVUPD Y5, 32(R10); \
	VMOVUPD Y6, 64(R10); \
	VMOVUPD Y7, 96(R10)

#define TW4(TW) \
	VBROADCASTSD (TW), Y8; \
	VBROADCASTSD 8(TW), Y9; \
	VBROADCASTSD 16(TW), Y10; \
	VBROADCASTSD 24(TW), Y11; \
	VBROADCASTSD 32(TW), Y12; \
	VBROADCASTSD 40(TW), Y13

#define FUSED4_A(CP, loop) \
	TW4(R14); \
	FUSED_A_LOOP(CP, 4, LOAD4A, BFLY4, STORE4A, loop)

#define LOAD4B \
	VMOVUPD (R10), Y0; \
	VMOVUPD 128(R10), Y1; \
	VMOVUPD 256(R10), Y2; \
	VMOVUPD 384(R10), Y3

#define STORE4B \
	VMOVUPD Y2, (R14); \
	VMOVUPD Y5, (R14)(R8*1); \
	VMOVUPD Y6, (R14)(R8*2); \
	ADDQ    R8, R14; \
	VMOVUPD Y7, (R14)(R8*2); \
	SUBQ    R8, R14

// Stage b's outputs conj·scaled by Y14 as they store.
#define STORE4S \
	CONJSCALE(Y2, Y14); \
	CONJSCALE(Y5, Y14); \
	CONJSCALE(Y6, Y14); \
	CONJSCALE(Y7, Y14); \
	STORE4B

#define STORE4T \
	VMOVUPD Y2, (R10); \
	VMOVUPD Y5, 128(R10); \
	VMOVUPD Y6, 256(R10); \
	VMOVUPD Y7, 384(R10)

TEXT ·mixed44Asm(SB), $2144-96
	FUSED_PROLOGUE(4)
	FUSED_ROW(f4_row)
	FUSED_CHUNK(4, f4_chunk)
	FUSED4_A(0, f4_a0)
	FUSED4_A(1, f4_a1)
	FUSED4_A(2, f4_a2)
	FUSED4_A(3, f4_a3)
	FUSED_B_START(4)
	MOVQ FUSED_TWB(SP), R14
	TW4(R14)
	FUSED_EDGES(f4_operand, f4_scaled)
	FUSED_B_LOOP(0, 4, LOAD4B, BFLY4, STORE4B, f4_b0)
	FUSED_B_LOOP(1, 4, LOAD4B, BFLY4, STORE4B, f4_b1)
	FUSED_B_LOOP(2, 4, LOAD4B, BFLY4, STORE4B, f4_b2)
	FUSED_B_LOOP(3, 4, LOAD4B, BFLY4, STORE4B, f4_b3)
	FUSED_END(4, f4_end, f4_chunk, f4_row)

f4_scaled:
	FUSED_B_LOOP(0, 4, LOAD4B, BFLY4, STORE4S, f4_s0)
	FUSED_B_LOOP(1, 4, LOAD4B, BFLY4, STORE4S, f4_s1)
	FUSED_B_LOOP(2, 4, LOAD4B, BFLY4, STORE4S, f4_s2)
	FUSED_B_LOOP(3, 4, LOAD4B, BFLY4, STORE4S, f4_s3)
	JMP f4_end

f4_operand:
	FUSED_B_LOOP(0, 4, LOAD4B, BFLY4, STORE4T, f4_t0)
	FUSED_B_LOOP(1, 4, LOAD4B, BFLY4, STORE4T, f4_t1)
	FUSED_B_LOOP(2, 4, LOAD4B, BFLY4, STORE4T, f4_t2)
	FUSED_B_LOOP(3, 4, LOAD4B, BFLY4, STORE4T, f4_t3)
	FUSED_OUT(4, f4_opair, f4_orow, f4_oscaled, f4_oposted)
	JMP f4_end

// func mixed55Asm(dst, src, twa, twb *complex128, s, m, np, nq int, scale float64, v *complex128, live int, post float64)
#define LOAD5A \
	VMOVUPD (AX), Y0; \
	VMOVUPD (AX)(R13*1), Y1; \
	VMOVUPD (AX)(R13*2), Y2; \
	VMOVUPD (AX)(R13*4), Y4; \
	ADDQ    R13, AX; \
	VMOVUPD (AX)(R13*2), Y3; \
	SUBQ    R13, AX

#define STORE5A \
	VMOVUPD Y13, (R10); \
	VMOVUPD Y0, 32(R10); \
	VMOVUPD Y1, 64(R10); \
	VMOVUPD Y2, 96(R10); \
	VMOVUPD Y5, 128(R10)

#define BFLY5A BFLY5(R14)

#define LOAD5B \
	VMOVUPD (R10), Y0; \
	VMOVUPD 160(R10), Y1; \
	VMOVUPD 320(R10), Y2; \
	VMOVUPD 480(R10), Y3; \
	VMOVUPD 640(R10), Y4

#define STORE5B \
	VMOVUPD Y13, (R14); \
	VMOVUPD Y0, (R14)(R8*1); \
	VMOVUPD Y1, (R14)(R8*2); \
	VMOVUPD Y5, (R14)(R8*4); \
	ADDQ    R8, R14; \
	VMOVUPD Y2, (R14)(R8*2); \
	SUBQ    R8, R14

// Stage b's outputs conj·scaled by Y14 as they store.
#define STORE5S \
	CONJSCALE(Y13, Y14); \
	CONJSCALE(Y0, Y14); \
	CONJSCALE(Y1, Y14); \
	CONJSCALE(Y2, Y14); \
	CONJSCALE(Y5, Y14); \
	STORE5B

#define STORE5T \
	VMOVUPD Y13, (R10); \
	VMOVUPD Y0, 160(R10); \
	VMOVUPD Y1, 320(R10); \
	VMOVUPD Y2, 480(R10); \
	VMOVUPD Y5, 640(R10)

// Stage b at radix 5 reads its twiddles through R13, free there.
#define BFLY5B BFLY5(R13)

TEXT ·mixed55Asm(SB), $2144-96
	FUSED_PROLOGUE(5)
	VBROADCASTSD mixedRadix5<>+0(SB), Y8
	VBROADCASTSD mixedRadix5<>+8(SB), Y9
	VBROADCASTSD mixedRadix5<>+16(SB), Y10
	VBROADCASTSD mixedRadix5<>+24(SB), Y11
	FUSED_ROW(f5_row)
	FUSED_CHUNK(2, f5_chunk)
	FUSED_A_LOOP(0, 5, LOAD5A, BFLY5A, STORE5A, f5_a0)
	FUSED_A_LOOP(1, 5, LOAD5A, BFLY5A, STORE5A, f5_a1)
	FUSED_A_LOOP(2, 5, LOAD5A, BFLY5A, STORE5A, f5_a2)
	FUSED_A_LOOP(3, 5, LOAD5A, BFLY5A, STORE5A, f5_a3)
	FUSED_A_LOOP(4, 5, LOAD5A, BFLY5A, STORE5A, f5_a4)
	FUSED_B_START(5)
	MOVQ FUSED_TWB(SP), R13
	FUSED_EDGES(f5_operand, f5_scaled)
	FUSED_B_LOOP(0, 5, LOAD5B, BFLY5B, STORE5B, f5_b0)
	FUSED_B_LOOP(1, 5, LOAD5B, BFLY5B, STORE5B, f5_b1)
	FUSED_B_LOOP(2, 5, LOAD5B, BFLY5B, STORE5B, f5_b2)
	FUSED_B_LOOP(3, 5, LOAD5B, BFLY5B, STORE5B, f5_b3)
	FUSED_B_LOOP(4, 5, LOAD5B, BFLY5B, STORE5B, f5_b4)
	FUSED_END(5, f5_end, f5_chunk, f5_row)

f5_scaled:
	FUSED_B_LOOP(0, 5, LOAD5B, BFLY5B, STORE5S, f5_s0)
	FUSED_B_LOOP(1, 5, LOAD5B, BFLY5B, STORE5S, f5_s1)
	FUSED_B_LOOP(2, 5, LOAD5B, BFLY5B, STORE5S, f5_s2)
	FUSED_B_LOOP(3, 5, LOAD5B, BFLY5B, STORE5S, f5_s3)
	FUSED_B_LOOP(4, 5, LOAD5B, BFLY5B, STORE5S, f5_s4)
	JMP f5_end

f5_operand:
	FUSED_B_LOOP(0, 5, LOAD5B, BFLY5B, STORE5T, f5_t0)
	FUSED_B_LOOP(1, 5, LOAD5B, BFLY5B, STORE5T, f5_t1)
	FUSED_B_LOOP(2, 5, LOAD5B, BFLY5B, STORE5T, f5_t2)
	FUSED_B_LOOP(3, 5, LOAD5B, BFLY5B, STORE5T, f5_t3)
	FUSED_B_LOOP(4, 5, LOAD5B, BFLY5B, STORE5T, f5_t4)
	FUSED_OUT(5, f5_opair, f5_orow, f5_oscaled, f5_oposted)
	JMP f5_end
