#include "textflag.h"

// func cpuAVX2() bool
//
// AVX2 needs the CPU to implement it (CPUID.7.0:EBX bit 5) and the OS to
// save the YMM registers across context switches: CPUID.1:ECX has OSXSAVE
// (bit 27) and AVX (bit 28), and XCR0 enables the XMM and YMM state (bits
// 1 and 2).
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// One block of four dimensions of four rows: the rows' components widened
// to float64 (VCVTPS2PD) and multiplied by the query's (Y10), one row per
// register; the 4×4 transpose then puts each row in one lane, dimension by
// dimension, and the four products are added to the row's lane of acc in
// ascending dimension order.
#define BLOCK4(r0, r1, r2, r3, acc) \
	VCVTPS2PD  (r0)(BX*1), Y2 \
	VCVTPS2PD  (r1)(BX*1), Y3 \
	VCVTPS2PD  (r2)(BX*1), Y4 \
	VCVTPS2PD  (r3)(BX*1), Y5 \
	VMULPD     Y10, Y2, Y2 \
	VMULPD     Y10, Y3, Y3 \
	VMULPD     Y10, Y4, Y4 \
	VMULPD     Y10, Y5, Y5 \
	VUNPCKLPD  Y3, Y2, Y6 \
	VUNPCKHPD  Y3, Y2, Y7 \
	VUNPCKLPD  Y5, Y4, Y8 \
	VUNPCKHPD  Y5, Y4, Y9 \
	VPERM2F128 $0x20, Y8, Y6, Y2 \
	VPERM2F128 $0x20, Y9, Y7, Y3 \
	VPERM2F128 $0x31, Y8, Y6, Y4 \
	VPERM2F128 $0x31, Y9, Y7, Y5 \
	VADDPD     Y2, acc, acc \
	VADDPD     Y3, acc, acc \
	VADDPD     Y4, acc, acc \
	VADDPD     Y5, acc, acc

// func dot8Blocks(rows *[8]*float32, q *float32, n int, dst *[8]float64)
TEXT ·dot8Blocks(SB), NOSPLIT, $0-32
	MOVQ   rows+0(FP), AX
	MOVQ   0(AX), R8
	MOVQ   8(AX), R9
	MOVQ   16(AX), R10
	MOVQ   24(AX), R11
	MOVQ   32(AX), R12
	MOVQ   40(AX), R13
	MOVQ   48(AX), DX
	MOVQ   56(AX), DI
	MOVQ   q+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0              // rows 0–3, one per lane
	VXORPD Y1, Y1, Y1              // rows 4–7
	XORQ   BX, BX                  // byte offset of the block
	SHRQ   $2, CX
	JZ     done

loop:
	VCVTPS2PD (SI)(BX*1), Y10      // the block's query components
	BLOCK4(R8, R9, R10, R11, Y0)
	BLOCK4(R12, R13, DX, DI, Y1)
	ADDQ      $16, BX
	DECQ      CX
	JNZ       loop

done:
	MOVQ    dst+24(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VZEROUPPER
	RET
