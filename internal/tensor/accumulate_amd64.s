#include "textflag.h"

// func accumulateAVX2(or, b []float64, terms []term, fresh bool)
//
// The AVX2 body of accumulate for len(or) a multiple of 4: sixteen, then
// four columns' sums stay in YMM registers across the whole term list. Each
// term broadcasts its value and multiplies it into the row of b at its
// offset (VMULPD), then adds the products into the sums (VADDPD) — never a
// fused multiply-add, so every element sums exactly the rounded products the
// Go loop does, in the same order, from +0 when fresh. It checks no bounds:
// MatMul and MatMulTransA have checked that b holds every row an offset can
// name.
TEXT ·accumulateAVX2(SB), NOSPLIT, $0-73
	MOVQ    or_base+0(FP), DI
	MOVQ    or_len+8(FP), CX
	MOVQ    b_base+24(FP), SI
	MOVQ    terms_base+48(FP), R8
	MOVQ    terms_len+56(FP), R9
	MOVBQZX fresh+72(FP), R10
	SHLQ    $4, R9 // a term is 16 bytes: off, then v
	ADDQ    R8, R9 // R9 = the end of the term list

	// DI walks or and SI walks b, both at column c.
block16:
	CMPQ    CX, $16
	JLT     block4
	TESTQ   R10, R10
	JNZ     zero16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	JMP     terms16

zero16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

terms16:
	MOVQ R8, R11

next16:
	CMPQ         R11, R9
	JEQ          store16
	MOVQ         0(R11), R12 // t.off: b[t.off+c] is at (SI)(R12*8)
	VBROADCASTSD 8(R11), Y4
	VMULPD       (SI)(R12*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(SI)(R12*8), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(SI)(R12*8), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(SI)(R12*8), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $16, R11
	JMP          next16

store16:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     block16

block4:
	CMPQ    CX, $4
	JLT     done
	TESTQ   R10, R10
	JNZ     zero4
	VMOVUPD 0(DI), Y0
	JMP     terms4

zero4:
	VXORPD Y0, Y0, Y0

terms4:
	MOVQ R8, R11

next4:
	CMPQ         R11, R9
	JEQ          store4
	MOVQ         0(R11), R12
	VBROADCASTSD 8(R11), Y4
	VMULPD       (SI)(R12*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $16, R11
	JMP          next4

store4:
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     block4

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
