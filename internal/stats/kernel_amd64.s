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

// func cellPairs(tile []wideCell, a, b []uint32, sums *[2]wideCell) bool
//
// sumCells over two lists in one walk: sums[0] is list a's cells added in
// list order from +0, sums[1] list b's. A 64-byte cell is four 16-byte loads
// and four ADDPDs into its list's accumulators — X0–X3 for a, X4–X7 for b,
// two columns each — so every column of every list is its own chain and adds
// its terms in sumCells' order. The lists are walked together up to the
// shorter length, then the longer one's tail alone. Every index is compared
// with len(tile) before its load; on the first that is out of range the
// routine returns false and writes nothing.
TEXT ·cellPairs(SB), NOSPLIT, $0-81
	MOVQ tile_base+0(FP), SI
	MOVQ tile_len+8(FP), DX
	MOVQ a_base+24(FP), R8
	MOVQ a_len+32(FP), R9
	MOVQ b_base+48(FP), R10
	MOVQ b_len+56(FP), R11
	MOVQ sums+72(FP), DI

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	// R12 = min(len(a), len(b)): the shared walk.
	MOVQ   R9, R12
	CMPQ   R11, R12
	CMOVQLT R11, R12

	XORQ CX, CX
	CMPQ CX, R12
	JAE  atail

pairs:
	MOVLQZX (R8)(CX*4), AX
	CMPQ    AX, DX
	JAE     bad
	MOVLQZX (R10)(CX*4), BX
	CMPQ    BX, DX
	JAE     bad
	SHLQ    $6, AX
	SHLQ    $6, BX

	MOVUPD 0(SI)(AX*1), X8
	MOVUPD 16(SI)(AX*1), X9
	MOVUPD 32(SI)(AX*1), X10
	MOVUPD 48(SI)(AX*1), X11
	ADDPD  X8, X0
	ADDPD  X9, X1
	ADDPD  X10, X2
	ADDPD  X11, X3

	MOVUPD 0(SI)(BX*1), X12
	MOVUPD 16(SI)(BX*1), X13
	MOVUPD 32(SI)(BX*1), X14
	MOVUPD 48(SI)(BX*1), X15
	ADDPD  X12, X4
	ADDPD  X13, X5
	ADDPD  X14, X6
	ADDPD  X15, X7

	INCQ CX
	CMPQ CX, R12
	JB   pairs

	// At most one of the two tails below is non-empty.
atail:
	CMPQ CX, R9
	JAE  btail
	MOVLQZX (R8)(CX*4), AX
	CMPQ    AX, DX
	JAE     bad
	SHLQ    $6, AX
	MOVUPD  0(SI)(AX*1), X8
	MOVUPD  16(SI)(AX*1), X9
	MOVUPD  32(SI)(AX*1), X10
	MOVUPD  48(SI)(AX*1), X11
	ADDPD   X8, X0
	ADDPD   X9, X1
	ADDPD   X10, X2
	ADDPD   X11, X3
	INCQ    CX
	JMP     atail

btail:
	MOVQ R12, CX

bloop:
	CMPQ CX, R11
	JAE  done
	MOVLQZX (R10)(CX*4), BX
	CMPQ    BX, DX
	JAE     bad
	SHLQ    $6, BX
	MOVUPD  0(SI)(BX*1), X12
	MOVUPD  16(SI)(BX*1), X13
	MOVUPD  32(SI)(BX*1), X14
	MOVUPD  48(SI)(BX*1), X15
	ADDPD   X12, X4
	ADDPD   X13, X5
	ADDPD   X14, X6
	ADDPD   X15, X7
	INCQ    CX
	JMP     bloop

done:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	MOVB   $1, ret+80(FP)
	RET

bad:
	MOVB $0, ret+80(FP)
	RET
