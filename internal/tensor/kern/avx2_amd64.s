#include "textflag.h"

// AVX2 register-tile microkernels. Every kernel holds a 4-row tile, two YMM
// registers of columns wide, in Y0..Y7 (row r in Y(2r), Y(2r+1)) and walks
// the inner dimension once: per step it loads the two column vectors of B
// into Y8/Y9, broadcasts each row's A value, and accumulates with a separate
// multiply and add. FMA is deliberately absent — it would round once where
// the scalar kernels round twice — so each lane is the scalar loop's own
// ascending-l chain and the results are bit-identical to it.

#define ZERO_TILE \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7

// One row of one step: acc += broadcast(a) * (Y8, Y9), product first.
#define ROW_STEP32(a, acc0, acc1) \
	VBROADCASTSS a, Y10; \
	VMULPS Y8, Y10, Y11; \
	VMULPS Y9, Y10, Y12; \
	VADDPS Y11, acc0, acc0; \
	VADDPS Y12, acc1, acc1

#define ROW_STEP64(a, acc0, acc1) \
	VBROADCASTSD a, Y10; \
	VMULPD Y8, Y10, Y11; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y11, acc0, acc0; \
	VADDPD Y12, acc1, acc1

// Widen one row's 16 float32 accumulators to float64 and store them at R13.
#define STORE_ROW32(xlo, ylo, xhi, yhi) \
	VCVTPS2PD xlo, Y8; \
	VEXTRACTF128 $1, ylo, X9; \
	VCVTPS2PD X9, Y9; \
	VCVTPS2PD xhi, Y10; \
	VEXTRACTF128 $1, yhi, X11; \
	VCVTPS2PD X11, Y11; \
	VMOVUPD Y8, (R13); \
	VMOVUPD Y9, 32(R13); \
	VMOVUPD Y10, 64(R13); \
	VMOVUPD Y11, 96(R13)

#define STORE_ROW64(lo, hi) \
	VMOVUPD lo, (R13); \
	VMOVUPD hi, 32(R13)

// func fwd4x16f32(dst *float64, ldd int, a, pb *float32, k, np int)
//
// For each of np consecutive 16-column panels starting at pb, and rows
// r = 0..3 of a (row stride k):
//   dst[r*ldd + 16*p + t] = float64(sum_l a[r*k+l] * panel_p[16*l+t])
// summed in float32. Requires k >= 1, np >= 1.
TEXT ·fwd4x16f32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ pb+24(FP), BX
	MOVQ k+32(FP), CX
	MOVQ np+40(FP), R8
	SHLQ $3, DX              // dst row stride in bytes
	LEAQ (CX*4), R9          // a row stride in bytes
	LEAQ (R9)(R9*2), R10     // three a rows

panel32:
	ZERO_TILE
	MOVQ SI, R11
	MOVQ CX, R12

step32:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	ROW_STEP32((R11), Y0, Y1)
	ROW_STEP32((R11)(R9*1), Y2, Y3)
	ROW_STEP32((R11)(R9*2), Y4, Y5)
	ROW_STEP32((R11)(R10*1), Y6, Y7)
	ADDQ $64, BX             // next l of the panel; after k steps, the next panel
	ADDQ $4, R11
	DECQ R12
	JNZ  step32

	MOVQ DI, R13
	STORE_ROW32(X0, Y0, X1, Y1)
	ADDQ DX, R13
	STORE_ROW32(X2, Y2, X3, Y3)
	ADDQ DX, R13
	STORE_ROW32(X4, Y4, X5, Y5)
	ADDQ DX, R13
	STORE_ROW32(X6, Y6, X7, Y7)
	ADDQ $128, DI
	DECQ R8
	JNZ  panel32

	VZEROUPPER
	RET

// func fwd4x8f64(dst *float64, ldd int, a, pb *float64, k, np int)
//
// The float64 form of fwd4x16f32 over 8-column panels:
//   dst[r*ldd + 8*p + t] = sum_l a[r*k+l] * panel_p[8*l+t]
TEXT ·fwd4x8f64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ pb+24(FP), BX
	MOVQ k+32(FP), CX
	MOVQ np+40(FP), R8
	SHLQ $3, DX
	LEAQ (CX*8), R9
	LEAQ (R9)(R9*2), R10

panel64:
	ZERO_TILE
	MOVQ SI, R11
	MOVQ CX, R12

step64:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW_STEP64((R11), Y0, Y1)
	ROW_STEP64((R11)(R9*1), Y2, Y3)
	ROW_STEP64((R11)(R9*2), Y4, Y5)
	ROW_STEP64((R11)(R10*1), Y6, Y7)
	ADDQ $64, BX
	ADDQ $8, R11
	DECQ R12
	JNZ  step64

	MOVQ DI, R13
	STORE_ROW64(Y0, Y1)
	ADDQ DX, R13
	STORE_ROW64(Y2, Y3)
	ADDQ DX, R13
	STORE_ROW64(Y4, Y5)
	ADDQ DX, R13
	STORE_ROW64(Y6, Y7)
	ADDQ $64, DI
	DECQ R8
	JNZ  panel64

	VZEROUPPER
	RET

// func bwd4x8f64(dst, a, b *float64, k, n, nt int)
//
// For each of nt consecutive 8-column tiles, rows r = 0..3 of a (row stride
// k) against the unpacked row-major b (row stride n, as is dst's):
//   dst[r*n + 8*q + t] = sum_l a[r*k+l] * b[l*n + 8*q + t]
// Requires k >= 1, nt >= 1.
TEXT ·bwd4x8f64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), DX
	MOVQ nt+40(FP), R8
	SHLQ $3, DX              // dst and b row stride in bytes
	LEAQ (CX*8), R9
	LEAQ (R9)(R9*2), R10

tileb:
	ZERO_TILE
	MOVQ SI, R11
	MOVQ BX, AX
	MOVQ CX, R12

stepb:
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	ROW_STEP64((R11), Y0, Y1)
	ROW_STEP64((R11)(R9*1), Y2, Y3)
	ROW_STEP64((R11)(R9*2), Y4, Y5)
	ROW_STEP64((R11)(R10*1), Y6, Y7)
	ADDQ DX, AX
	ADDQ $8, R11
	DECQ R12
	JNZ  stepb

	MOVQ DI, R13
	STORE_ROW64(Y0, Y1)
	ADDQ DX, R13
	STORE_ROW64(Y2, Y3)
	ADDQ DX, R13
	STORE_ROW64(Y4, Y5)
	ADDQ DX, R13
	STORE_ROW64(Y6, Y7)
	ADDQ $64, DI
	ADDQ $64, BX
	DECQ R8
	JNZ  tileb

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
