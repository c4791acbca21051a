#include "textflag.h"

// func quantizeBlocks(dst []int8, o []float32, inv, s float64) float64
TEXT ·quantizeBlocks(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  o_base+24(FP), SI
	MOVQ  o_len+32(FP), CX
	MOVSD inv+48(FP), X0
	UNPCKLPD X0, X0                // 1/s in both lanes
	MOVQ  $0x4338000000000000, AX  // roundMagic
	MOVQ  AX, X1
	UNPCKLPD X1, X1
	MOVSD s+56(FP), X2
	UNPCKLPD X2, X2
	XORPD X3, X3                   // Σ r², components 4k and 4k+1
	XORPD X4, X4                   // Σ r², components 4k+2 and 4k+3
	SHRQ  $2, CX
	JZ    done

loop:
	CVTPS2PD (SI), X6              // o0, o1
	CVTPS2PD 8(SI), X7             // o2, o3
	MOVAPD   X6, X8
	MULPD    X0, X8
	ADDPD    X1, X8                // m0, m1: the codes in their low dwords
	MOVAPD   X8, X10
	SUBPD    X1, X10               // c0, c1
	MOVAPD   X7, X9
	MULPD    X0, X9
	ADDPD    X1, X9                // m2, m3
	MOVAPD   X9, X11
	SUBPD    X1, X11               // c2, c3
	MULPD    X2, X10
	SUBPD    X10, X6               // r0, r1
	MULPD    X2, X11
	SUBPD    X11, X7               // r2, r3
	MULPD    X6, X6
	ADDPD    X6, X3
	MULPD    X7, X7
	ADDPD    X7, X4
	SHUFPS   $0x88, X9, X8         // c0 c1 c2 c3
	PACKSSLW X8, X8
	PACKSSWB X8, X8
	MOVQ     X8, AX
	MOVL     AX, (DI)
	ADDQ     $16, SI
	ADDQ     $4, DI
	DECQ     CX
	JNZ      loop

done:
	ADDPD    X4, X3
	MOVAPD   X3, X5
	UNPCKHPD X5, X5
	ADDSD    X5, X3
	MOVSD    X3, ret+64(FP)
	RET

// func maxAbsBlocks(o []float32) float32
TEXT ·maxAbsBlocks(SB), NOSPLIT, $0-28
	MOVQ   o_base+0(FP), SI
	MOVQ   o_len+8(FP), CX
	MOVQ   $0x7fffffff, AX         // clears the sign bit
	MOVQ   AX, X1
	PSHUFD $0, X1, X1
	XORPS  X0, X0
	SHRQ   $2, CX
	JZ     fold

absloop:
	MOVUPS (SI), X2
	ANDPS  X1, X2
	MAXPS  X2, X0
	ADDQ   $16, SI
	DECQ   CX
	JNZ    absloop

fold:
	MOVAPS  X0, X2
	MOVHLPS X2, X2
	MAXPS   X2, X0
	PSHUFD  $1, X0, X2
	MAXSS   X2, X0
	MOVSS   X0, ret+24(FP)
	RET

// func dotInt8Blocks(a []int8, b []int16) int64
TEXT ·dotInt8Blocks(SB), NOSPLIT, $0-56
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	XORQ  AX, AX                   // the int64 total
	SHRQ  $3, CX                   // blocks of eight
	JZ    dotdone

// A lane gains at most 2·(−128)·(−32768) = 2²³ per block and
// 255·2²³ < 2³¹, so the lanes are flushed to AX every 255 blocks or fewer.
// PMADDWD overflows only when all four of a lane's inputs are −32768, and
// half of them are sign-extended int8s.
flush:
	MOVQ  $255, DX                 // blocks before the lanes are flushed
	CMPQ  CX, DX
	CMOVQLT CX, DX
	SUBQ  DX, CX
	PXOR  X0, X0                   // four int32 lanes

dotloop:
	MOVQ      (SI), X1             // eight int8 codes
	PUNPCKLBW X1, X1
	PSRAW     $8, X1               // sign-extended to int16
	MOVOU     (DI), X2             // eight int16 codes
	PMADDWL   X2, X1               // a₂ᵢb₂ᵢ + a₂ᵢ₊₁b₂ᵢ₊₁ per lane
	PADDL     X1, X0
	ADDQ      $8, SI
	ADDQ      $16, DI
	DECQ      DX
	JNZ       dotloop

	MOVQ    X0, BX                 // lanes 0 and 1
	MOVLQSX BX, R8
	SARQ    $32, BX
	ADDQ    R8, AX
	ADDQ    BX, AX
	PSHUFD  $0xee, X0, X0          // lanes 2 and 3
	MOVQ    X0, BX
	MOVLQSX BX, R8
	SARQ    $32, BX
	ADDQ    R8, AX
	ADDQ    BX, AX
	TESTQ   CX, CX
	JNZ     flush

dotdone:
	MOVQ  AX, ret+48(FP)
	RET

// The int32 lanes of one row's accumulator (acc, accx its low half),
// sign-extended to int64 and added to the row's int64 lanes (acc64).
#define WIDEN(acc, accx, acc64) \
	VPMOVSXDQ    accx, Y9 \
	VEXTRACTI128 $1, acc, X10 \
	VPMOVSXDQ    X10, Y10 \
	VPADDQ       Y9, acc64, acc64 \
	VPADDQ       Y10, acc64, acc64

// One block of 16 dimensions of the row at r: its codes sign-extended to
// int16 (VPMOVSXBW) and multiplied by the query's (Y8), each adjacent pair
// of products summed into one of the eight int32 lanes of acc (VPMADDWD).
#define ROWBLOCK(r, acc) \
	VPMOVSXBW (r)(BX*1), Y9 \
	VPMADDWD  Y8, Y9, Y9 \
	VPADDD    Y9, acc, acc

// func dotInt8Rows4(a *int8, stride, groups int, b *int16, n int, dst *int64)
//
// Four rows per group, stride bytes apart: R8–R11 point at the group's rows
// and DI at the next group's first. BX is the dimension the next block
// starts at. A lane gains at most 2·(−128)·(−32768) = 2²³ per block and
// 255·2²³ < 2³¹, so the int32 lanes (Y0–Y3) are widened into the int64
// ones (Y4–Y7) every 255 blocks or fewer; DX is where that happens next.
// The group's four totals are then summed lane-wise into one register and
// stored as dst[0..3].
TEXT ·dotInt8Rows4(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), DI
	MOVQ stride+8(FP), AX
	MOVQ groups+16(FP), CX
	MOVQ b+24(FP), SI
	MOVQ n+32(FP), R13
	MOVQ dst+40(FP), R12
	TESTQ CX, CX
	JZ    rowsdone

group:
	MOVQ  DI, R8
	LEAQ  (R8)(AX*1), R9
	LEAQ  (R9)(AX*1), R10
	LEAQ  (R10)(AX*1), R11
	LEAQ  (R11)(AX*1), DI
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  BX, BX

widen:
	LEAQ    4080(BX), DX           // 255 blocks on
	CMPQ    DX, R13
	CMOVQGT R13, DX
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3

block:
	VMOVDQU (SI)(BX*2), Y8         // the block's 16 query codes
	ROWBLOCK(R8, Y0)
	ROWBLOCK(R9, Y1)
	ROWBLOCK(R10, Y2)
	ROWBLOCK(R11, Y3)
	ADDQ    $16, BX
	CMPQ    BX, DX
	JLT     block

	WIDEN(Y0, X0, Y4)
	WIDEN(Y1, X1, Y5)
	WIDEN(Y2, X2, Y6)
	WIDEN(Y3, X3, Y7)
	CMPQ BX, R13
	JLT  widen

	VPUNPCKLQDQ Y5, Y4, Y9         // r0.0 r1.0 | r0.2 r1.2
	VPUNPCKHQDQ Y5, Y4, Y10        // r0.1 r1.1 | r0.3 r1.3
	VPADDQ      Y10, Y9, Y9
	VPUNPCKLQDQ Y7, Y6, Y10        // r2.0 r3.0 | r2.2 r3.2
	VPUNPCKHQDQ Y7, Y6, Y11        // r2.1 r3.1 | r2.3 r3.3
	VPADDQ      Y11, Y10, Y10
	VPERM2I128  $0x20, Y10, Y9, Y11 // lanes 0 and 1 of every row
	VPERM2I128  $0x31, Y10, Y9, Y12 // lanes 2 and 3
	VPADDQ      Y12, Y11, Y11
	VMOVDQU     Y11, (R12)
	ADDQ        $32, R12
	DECQ        CX
	JNZ         group

rowsdone:
	VZEROUPPER
	RET
