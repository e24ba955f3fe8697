#include "textflag.h"

// func hasAVX2FMA() bool
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	// CPUID.1:ECX must report FMA (bit 12), OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no
	// The OS must save the XMM and YMM state (XCR0 bits 1 and 2).
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.(7,0):EBX must report AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JEQ  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func fmaCols16(w, x *float64, k, stride int, acc *float64)
//
// acc[0:16] += Σ_{i<k} w[i] · x[i*stride : i*stride+16]. Two rows per
// iteration go to separate accumulator sets, folded together at the end.
TEXT ·fmaCols16(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R8
	MOVQ acc+32(FP), AX
	SHLQ $3, R8              // row stride in bytes
	LEAQ (R8)(R8*1), R9      // two rows
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7

pair16:
	CMPQ CX, $2
	JLT  last16
	VBROADCASTSD 0(SI), Y8
	VBROADCASTSD 8(SI), Y9
	VFMADD231PD  0(DI), Y8, Y0
	VFMADD231PD  32(DI), Y8, Y1
	VFMADD231PD  64(DI), Y8, Y2
	VFMADD231PD  96(DI), Y8, Y3
	VFMADD231PD  0(DI)(R8*1), Y9, Y4
	VFMADD231PD  32(DI)(R8*1), Y9, Y5
	VFMADD231PD  64(DI)(R8*1), Y9, Y6
	VFMADD231PD  96(DI)(R8*1), Y9, Y7
	ADDQ $16, SI
	ADDQ R9, DI
	SUBQ $2, CX
	JMP  pair16

last16:
	TESTQ CX, CX
	JEQ   done16
	VBROADCASTSD 0(SI), Y8
	VFMADD231PD  0(DI), Y8, Y0
	VFMADD231PD  32(DI), Y8, Y1
	VFMADD231PD  64(DI), Y8, Y2
	VFMADD231PD  96(DI), Y8, Y3

done16:
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VZEROUPPER
	RET

// func fmaCols4(w, x *float64, k, stride int, acc *float64)
//
// acc[0:4] += Σ_{i<k} w[i] · x[i*stride : i*stride+4]. Four rows per
// iteration go to separate accumulators, folded together at the end.
TEXT ·fmaCols4(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R8
	MOVQ acc+32(FP), AX
	SHLQ $3, R8              // row stride in bytes
	LEAQ (R8)(R8*2), R9      // three rows
	VMOVUPD 0(AX), Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3

quad4:
	CMPQ CX, $4
	JLT  single4
	VBROADCASTSD 0(SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VFMADD231PD  0(DI), Y8, Y0
	VFMADD231PD  0(DI)(R8*1), Y9, Y1
	VFMADD231PD  0(DI)(R8*2), Y10, Y2
	VFMADD231PD  0(DI)(R9*1), Y11, Y3
	ADDQ $32, SI
	LEAQ (DI)(R8*4), DI
	SUBQ $4, CX
	JMP  quad4

single4:
	TESTQ CX, CX
	JEQ   done4
	VBROADCASTSD 0(SI), Y8
	VFMADD231PD  0(DI), Y8, Y0
	ADDQ $8, SI
	ADDQ R8, DI
	DECQ CX
	JMP  single4

done4:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, 0(AX)
	VZEROUPPER
	RET

// func dotRows(w, x *float64, k int) float64
//
// Σ_{i<k} w[i] · x[i], in four lanes times four accumulators.
TEXT ·dotRows(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ k+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

block16:
	CMPQ CX, $16
	JLT  block4
	VMOVUPD     0(SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD 0(DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  block16

block4:
	CMPQ CX, $4
	JLT  reduce
	VMOVUPD     0(SI), Y4
	VFMADD231PD 0(DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  block4

reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0

tail1:
	TESTQ CX, CX
	JEQ   dotdone
	VMOVSD      0(SI), X1
	VFMADD231SD 0(DI), X1, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  tail1

dotdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET
