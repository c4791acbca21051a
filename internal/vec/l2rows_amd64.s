#include "textflag.h"

// One block of four dimensions of the four rows in R8–R11 at byte offset
// BX: each row's components widened to float64 (VCVTPS2PD), minus the
// query's (Y10), squared, one row per register; the 4×4 transpose then puts
// each row in one lane, dimension by dimension, and the four squares are
// added to the row's lane of Y0 in ascending dimension order.
#define L2BLOCK4 \
	VCVTPS2PD  (SI)(BX*1), Y10 \
	VCVTPS2PD  (R8)(BX*1), Y2 \
	VCVTPS2PD  (R9)(BX*1), Y3 \
	VCVTPS2PD  (R10)(BX*1), Y4 \
	VCVTPS2PD  (R11)(BX*1), Y5 \
	VSUBPD     Y10, Y2, Y2 \
	VSUBPD     Y10, Y3, Y3 \
	VSUBPD     Y10, Y4, Y4 \
	VSUBPD     Y10, Y5, Y5 \
	VMULPD     Y2, Y2, Y2 \
	VMULPD     Y3, Y3, Y3 \
	VMULPD     Y4, Y4, Y4 \
	VMULPD     Y5, Y5, Y5 \
	VUNPCKLPD  Y3, Y2, Y6 \
	VUNPCKHPD  Y3, Y2, Y7 \
	VUNPCKLPD  Y5, Y4, Y8 \
	VUNPCKHPD  Y5, Y4, Y9 \
	VPERM2F128 $0x20, Y8, Y6, Y2 \
	VPERM2F128 $0x20, Y9, Y7, Y3 \
	VPERM2F128 $0x31, Y8, Y6, Y4 \
	VPERM2F128 $0x31, Y9, Y7, Y5 \
	VADDPD     Y2, Y0, Y0 \
	VADDPD     Y3, Y0, Y0 \
	VADDPD     Y4, Y0, Y0 \
	VADDPD     Y5, Y0, Y0

// func l2Blocks(rows unsafe.Pointer, stride int, n int, q *float32, m int, dst *float64)
//
// Four rows per group: R8–R11 hold the group's row pointers, taken from
// rows + i·stride (R12 walks the rows) or, when stride is 0, from the data
// pointers of the slice headers at rows (R12 walks the headers, 24 bytes
// apart). DX counts the dimensions left in the group's rows. A block of
// two dimensions and a block of one finish every row, so no load reaches
// past a row's last float.
TEXT ·l2Blocks(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), R12
	MOVQ stride+8(FP), AX
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), SI
	MOVQ dst+40(FP), DI
	SHRQ $2, CX
	JZ   done

group:
	TESTQ AX, AX
	JZ    headers
	MOVQ  R12, R8
	LEAQ  (R8)(AX*1), R9
	LEAQ  (R9)(AX*1), R10
	LEAQ  (R10)(AX*1), R11
	LEAQ  (R11)(AX*1), R12
	JMP   rowsSet

headers:
	MOVQ 0(R12), R8
	MOVQ 24(R12), R9
	MOVQ 48(R12), R10
	MOVQ 72(R12), R11
	ADDQ $96, R12

rowsSet:
	MOVQ   m+32(FP), DX
	VXORPD Y0, Y0, Y0              // the group's four rows, one per lane
	XORQ   BX, BX                  // byte offset of the block
	CMPQ   DX, $4
	JLT    pair

quad:
	L2BLOCK4
	ADDQ $16, BX
	SUBQ $4, DX
	CMPQ DX, $4
	JGE  quad

pair:
	// Two dimensions: row r's pair widened into X2–X5; rows 2 and 3 go to
	// the upper halves of rows 0 and 1, so one unpack pair makes the lanes.
	CMPQ        DX, $2
	JLT         single
	VCVTPS2PD   (SI)(BX*1), X10
	VCVTPS2PD   (R8)(BX*1), X2
	VCVTPS2PD   (R9)(BX*1), X3
	VCVTPS2PD   (R10)(BX*1), X4
	VCVTPS2PD   (R11)(BX*1), X5
	VINSERTF128 $1, X10, Y10, Y10  // q₀ q₁ q₀ q₁
	VINSERTF128 $1, X4, Y2, Y2     // r0d0 r0d1 r2d0 r2d1
	VINSERTF128 $1, X5, Y3, Y3     // r1d0 r1d1 r3d0 r3d1
	VSUBPD      Y10, Y2, Y2
	VSUBPD      Y10, Y3, Y3
	VMULPD      Y2, Y2, Y2
	VMULPD      Y3, Y3, Y3
	VUNPCKLPD   Y3, Y2, Y6         // the first dimension of rows 0–3
	VUNPCKHPD   Y3, Y2, Y7         // the second
	VADDPD      Y6, Y0, Y0
	VADDPD      Y7, Y0, Y0
	ADDQ        $8, BX
	SUBQ        $2, DX

single:
	// The last dimension: one float of each row gathered into X2.
	TESTQ        DX, DX
	JZ           store
	VMOVSS       (R8)(BX*1), X2
	VINSERTPS    $0x10, (R9)(BX*1), X2, X2
	VINSERTPS    $0x20, (R10)(BX*1), X2, X2
	VINSERTPS    $0x30, (R11)(BX*1), X2, X2
	VBROADCASTSS (SI)(BX*1), X10
	VCVTPS2PD    X2, Y2
	VCVTPS2PD    X10, Y10
	VSUBPD       Y10, Y2, Y2
	VMULPD       Y2, Y2, Y2
	VADDPD       Y2, Y0, Y0

store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     group

done:
	VZEROUPPER
	RET
