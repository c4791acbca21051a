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
