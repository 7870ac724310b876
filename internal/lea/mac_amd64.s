#include "textflag.h"

// func firQ15(out, in, coef []uint16)
//
// One output per outer iteration: PMADDWD multiplies 8 input samples by
// 8 coefficients and adds adjacent products into 4 int32 lanes, which
// accumulate over the taps. The lanes are then folded, shifted right by
// 15 and saturated to int16 by PACKSSDW, and the output is stored
// before the next window is loaded.
TEXT ·firQ15(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ in_base+24(FP), SI
	MOVQ coef_base+48(FP), DX
	MOVQ coef_len+56(FP), BX
	SHLQ $1, BX // taps in bytes
	TESTQ CX, CX
	JEQ fir_done

fir_out:
	PXOR X0, X0
	XORQ AX, AX

fir_tap:
	MOVOU (SI)(AX*1), X1
	MOVOU (DX)(AX*1), X2
	PMADDWL X2, X1
	PADDL X1, X0
	ADDQ $16, AX
	CMPQ AX, BX
	JLT fir_tap

	PSHUFL $0x4e, X0, X1
	PADDL X1, X0
	PSHUFL $0xb1, X0, X1
	PADDL X1, X0
	PSRAL $15, X0
	PACKSSLW X0, X0
	MOVQ X0, AX
	MOVW AX, (DI)
	ADDQ $2, SI
	ADDQ $2, DI
	DECQ CX
	JNE fir_out

fir_done:
	RET

// func dot8(a, b []uint16) int64
//
// PMADDWD yields 4 int32 pair sums per 8 samples. Each is sign-extended
// to int64 and accumulated there. The one pair sum int32 cannot hold is
// +2^31, from two (−32768)·(−32768) products; it arrives as 0x80000000,
// which no true pair sum equals (the least is −2^31 + 2^16), so those
// lanes are counted and 2^32 is added back per count.
TEXT ·dot8(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	SHRQ $3, CX
	PXOR X4, X4 // int64 sums of lanes 0 and 1
	PXOR X5, X5 // int64 sums of lanes 2 and 3
	PXOR X6, X6 // per-lane count of wrapped pair sums, negated
	MOVL $0x80000000, AX
	MOVQ AX, X7
	PSHUFL $0, X7, X7
	TESTQ CX, CX
	JEQ dot_fold

dot_loop:
	MOVOU (SI), X0
	MOVOU (DX), X1
	PMADDWL X1, X0
	MOVO X0, X1
	PCMPEQL X7, X1
	PADDL X1, X6
	PXOR X2, X2
	PCMPGTL X0, X2 // sign mask of each pair sum
	MOVO X0, X1
	PUNPCKLLQ X2, X0
	PUNPCKHLQ X2, X1
	PADDQ X0, X4
	PADDQ X1, X5
	ADDQ $16, SI
	ADDQ $16, DX
	DECQ CX
	JNE dot_loop

dot_fold:
	PADDQ X5, X4
	PSHUFL $0x4e, X4, X5
	PADDQ X5, X4
	MOVQ X4, AX
	PSHUFL $0x4e, X6, X5
	PADDL X5, X6
	PSHUFL $0xb1, X6, X5
	PADDL X5, X6
	MOVQ X6, BX
	MOVLQSX BX, BX
	SHLQ $32, BX
	SUBQ BX, AX
	MOVQ AX, ret+48(FP)
	RET
