#include "textflag.h"

// func packedRows4(table *[256][4]float64, packed *byte, stride, full int, r *float64, lanes *[4][4]float64)
//
// Scores the full bytes of four packed rows, row j at packed + j·stride, in
// PackedRowScores' four lanes: lanes[j] is row j's (l0, l1, l2, l3) over the
// patients 0 … 4·full−1. Byte k of a row is one 32-byte load of table[byte],
// its four dosages, multiplied by r[4k:4k+4] and added into the row's two
// accumulators — X(2j) holds lanes 0 and 1, X(2j+1) lanes 2 and 3 — so every
// lane adds one rounded product per byte in ascending patient order, and the
// four rows share each load of r.
TEXT ·packedRows4(SB), NOSPLIT, $0-48
	MOVQ table+0(FP), R8
	MOVQ packed+8(FP), SI
	MOVQ stride+16(FP), BX
	MOVQ full+24(FP), CX
	MOVQ r+32(FP), DX
	MOVQ lanes+40(FP), DI

	LEAQ (SI)(BX*1), R9
	LEAQ (SI)(BX*2), R10
	LEAQ (R10)(BX*1), R11

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	XORQ  R12, R12
	TESTQ CX, CX
	JZ    done

loop:
	MOVUPD (DX), X8
	MOVUPD 16(DX), X9

	MOVBQZX (SI)(R12*1), AX
	SHLQ    $5, AX
	MOVUPD  (R8)(AX*1), X10
	MOVUPD  16(R8)(AX*1), X11
	MULPD   X8, X10
	MULPD   X9, X11
	ADDPD   X10, X0
	ADDPD   X11, X1

	MOVBQZX (R9)(R12*1), R13
	SHLQ    $5, R13
	MOVUPD  (R8)(R13*1), X12
	MOVUPD  16(R8)(R13*1), X13
	MULPD   X8, X12
	MULPD   X9, X13
	ADDPD   X12, X2
	ADDPD   X13, X3

	MOVBQZX (R10)(R12*1), AX
	SHLQ    $5, AX
	MOVUPD  (R8)(AX*1), X10
	MOVUPD  16(R8)(AX*1), X11
	MULPD   X8, X10
	MULPD   X9, X11
	ADDPD   X10, X4
	ADDPD   X11, X5

	MOVBQZX (R11)(R12*1), R13
	SHLQ    $5, R13
	MOVUPD  (R8)(R13*1), X12
	MOVUPD  16(R8)(R13*1), X13
	MULPD   X8, X12
	MULPD   X9, X13
	ADDPD   X12, X6
	ADDPD   X13, X7

	ADDQ $32, DX
	INCQ R12
	CMPQ R12, CX
	JB   loop

done:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	RET
