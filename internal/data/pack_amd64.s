#include "textflag.h"

// func packCanon64(text *byte, groups int, row *byte) (sum uint64, ok bool)
//
// Packs groups 64-byte groups of canonical genotype text, "d d d … d " with
// d in {0,1,2}, into 8 row bytes each. A group is four xmm loads of eight
// 16-bit lanes, digit in the low byte and space in the high byte. Per lane,
// x = lane XOR "0 " is the digit if the lane is canonical: then no bit
// outside the two digit bits is set and x is not 3. Every lane's x is ORed
// into X12 and every lane's x AND x>>1 into X13, and both are masked and
// tested once at the end, so ok is the word loop's check over the same
// lanes. The digits are summed with PSADBW. The code (x XOR 3) − (x>>1) maps
// 0 → 11, 1 → 10, 2 → 00; PMADDWL by {1,4} and by {1,16} gathers four codes
// into a byte, and the PACK steps keep lane order, so byte k of the group's
// 8 holds patients 4k … 4k+3 in its 2-bit lanes, low to high.
TEXT ·packCanon64(SB), NOSPLIT, $0-33
	MOVQ text+0(FP), SI
	MOVQ groups+8(FP), CX
	MOVQ row+16(FP), DI

	MOVQ       $0x2030203020302030, AX
	MOVQ       AX, X8
	PUNPCKLQDQ X8, X8                  // "0 " in every lane
	MOVQ       $0x0003000300030003, AX
	MOVQ       AX, X9
	PUNPCKLQDQ X9, X9                  // 3 in every lane
	MOVQ       $0x0004000100040001, AX
	MOVQ       AX, X10
	PUNPCKLQDQ X10, X10                // {1,4} per lane pair
	MOVQ       $0x0010000100100001, AX
	MOVQ       AX, X11
	PUNPCKLQDQ X11, X11                // {1,16} per lane pair

	PXOR X12, X12 // OR of every x
	PXOR X13, X13 // OR of every x AND x>>1
	PXOR X14, X14 // digit sum, one per qword
	PXOR X15, X15

	TESTQ CX, CX
	JZ    done

loop:
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	PXOR  X8, X0
	PXOR  X8, X1
	PXOR  X8, X2
	PXOR  X8, X3
	POR   X0, X12
	POR   X1, X12
	POR   X2, X12
	POR   X3, X12

	MOVO   X0, X4
	PADDB  X1, X4
	PADDB  X2, X4
	PADDB  X3, X4
	PSADBW X15, X4
	PADDQ  X4, X14

	MOVO  X0, X4
	PSRLW $1, X4
	MOVO  X4, X5
	PAND  X0, X5
	PXOR  X9, X0
	PSUBW X4, X0
	MOVO  X1, X6
	PSRLW $1, X6
	MOVO  X6, X7
	PAND  X1, X7
	PXOR  X9, X1
	PSUBW X6, X1
	POR   X5, X13
	POR   X7, X13

	MOVO  X2, X4
	PSRLW $1, X4
	MOVO  X4, X5
	PAND  X2, X5
	PXOR  X9, X2
	PSUBW X4, X2
	MOVO  X3, X6
	PSRLW $1, X6
	MOVO  X6, X7
	PAND  X3, X7
	PXOR  X9, X3
	PSUBW X6, X3
	POR   X5, X13
	POR   X7, X13

	PMADDWL  X10, X0
	PMADDWL  X10, X1
	PMADDWL  X10, X2
	PMADDWL  X10, X3
	PACKSSLW X1, X0
	PACKSSLW X3, X2
	PMADDWL  X11, X0
	PMADDWL  X11, X2
	PACKSSLW X2, X0
	PACKUSWB X0, X0
	MOVQ     X0, (DI)

	ADDQ $64, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  loop

done:
	MOVQ       $0xfffcfffcfffcfffc, AX
	MOVQ       AX, X0
	PUNPCKLQDQ X0, X0
	PAND       X0, X12
	MOVQ       $0x0001000100010001, AX
	MOVQ       AX, X1
	PUNPCKLQDQ X1, X1
	PAND       X1, X13
	POR        X13, X12
	PCMPEQB    X15, X12
	PMOVMSKB   X12, AX
	CMPQ       AX, $0xffff
	SETEQ      ok+32(FP)

	PSHUFD $0x4e, X14, X0
	PADDQ  X14, X0
	MOVQ   X0, sum+24(FP)
	RET
