#include "textflag.h"

// func packedRows4(table *[256][4]float64, packed *byte, stride, full int, r *float64, lanes *[4][4]float64)
//
// Scores the full bytes of four packed rows, row j at packed + j·stride, in
// PackedRowScores' four lanes: lanes[j] is row j's (l0, l1, l2, l3) over the
// patients 0 … 4·full−1, held in Yj. Byte k of a row is table[byte], its four
// dosages, multiplied by r[4k:4k+4] — one load shared by the four rows — and
// added into Yj, so every lane adds one rounded product per byte in ascending
// patient order. A multiply and an add, never a fused one: the contract
// rounds the product before the sum.
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

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	XORQ  R12, R12
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DX), Y8

	MOVBQZX (SI)(R12*1), AX
	SHLQ    $5, AX
	VMULPD  (R8)(AX*1), Y8, Y4
	VADDPD  Y4, Y0, Y0

	MOVBQZX (R9)(R12*1), R13
	SHLQ    $5, R13
	VMULPD  (R8)(R13*1), Y8, Y5
	VADDPD  Y5, Y1, Y1

	MOVBQZX (R10)(R12*1), AX
	SHLQ    $5, AX
	VMULPD  (R8)(AX*1), Y8, Y6
	VADDPD  Y6, Y2, Y2

	MOVBQZX (R11)(R12*1), R13
	SHLQ    $5, R13
	VMULPD  (R8)(R13*1), Y8, Y7
	VADDPD  Y7, Y3, Y3

	ADDQ $32, DX
	INCQ R12
	CMPQ R12, CX
	JB   loop

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func cellPairs(tile []panelCell, a, b []uint32, sums *[2]panelCell) bool
//
// sumCells over two lists in one walk: sums[0] is list a's cells added in
// list order from +0, sums[1] list b's. A 64-byte cell is two 32-byte
// VADDPDs into its list's accumulators — Y0–Y1 for a, Y2–Y3 for b, four
// columns each — so every column of every list is its own chain and adds its
// terms in sumCells' order. The lists are walked together up to the shorter
// length, then the longer one's tail alone. Every index is compared with
// len(tile) before its load; on the first that is out of range the routine
// returns false and writes nothing.
TEXT ·cellPairs(SB), NOSPLIT, $0-81
	MOVQ tile_base+0(FP), SI
	MOVQ tile_len+8(FP), DX
	MOVQ a_base+24(FP), R8
	MOVQ a_len+32(FP), R9
	MOVQ b_base+48(FP), R10
	MOVQ b_len+56(FP), R11
	MOVQ sums+72(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

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

	VADDPD 0(SI)(AX*1), Y0, Y0
	VADDPD 32(SI)(AX*1), Y1, Y1
	VADDPD 0(SI)(BX*1), Y2, Y2
	VADDPD 32(SI)(BX*1), Y3, Y3

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
	VADDPD  0(SI)(AX*1), Y0, Y0
	VADDPD  32(SI)(AX*1), Y1, Y1
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
	VADDPD  0(SI)(BX*1), Y2, Y2
	VADDPD  32(SI)(BX*1), Y3, Y3
	INCQ    CX
	JMP     bloop

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	MOVB    $1, ret+80(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ret+80(FP)
	RET

// func tilePairs(pair []panelCell, a, b []uint32, sums *[4]panelCell) bool
//
// cellPairs over two adjacent tiles in one walk: pair holds tile t in its
// first len(pair)/2 cells and tile t+1 in the next as many, and sums[0] and
// sums[1] are lists a and b over tile t, sums[2] and sums[3] over tile t+1.
// A 64-byte cell is one zmm VADDPD with a memory operand into its list's and
// tile's accumulator — Z0 a on t, Z1 b on t, Z2 a on t+1, Z3 b on t+1 — so
// every column of every list on every tile is its own chain and adds its
// terms in sumCells' order. The lists are walked together up to the shorter
// length, then the longer one's tail alone. Every index is compared with the
// tile's cell count before its loads; on the first that is out of range the
// routine returns false and writes nothing. AVX-512F only: the zeroing is
// VPXORQ, not VXORPD, which on zmm needs AVX-512DQ.
TEXT ·tilePairs(SB), NOSPLIT, $0-81
	MOVQ pair_base+0(FP), SI
	MOVQ pair_len+8(FP), DX
	MOVQ a_base+24(FP), R8
	MOVQ a_len+32(FP), R9
	MOVQ b_base+48(FP), R10
	MOVQ b_len+56(FP), R11
	MOVQ sums+72(FP), DI

	// DX = the cells of one tile; R13 = tile t+1.
	SHRQ $1, DX
	MOVQ DX, R13
	SHLQ $6, R13
	ADDQ SI, R13

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	// R12 = min(len(a), len(b)): the shared walk.
	MOVQ    R9, R12
	CMPQ    R11, R12
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

	VADDPD (SI)(AX*1), Z0, Z0
	VADDPD (SI)(BX*1), Z1, Z1
	VADDPD (R13)(AX*1), Z2, Z2
	VADDPD (R13)(BX*1), Z3, Z3

	INCQ CX
	CMPQ CX, R12
	JB   pairs

	// At most one of the two tails below is non-empty.
atail:
	CMPQ    CX, R9
	JAE     btail
	MOVLQZX (R8)(CX*4), AX
	CMPQ    AX, DX
	JAE     bad
	SHLQ    $6, AX
	VADDPD  (SI)(AX*1), Z0, Z0
	VADDPD  (R13)(AX*1), Z2, Z2
	INCQ    CX
	JMP     atail

btail:
	MOVQ R12, CX

bloop:
	CMPQ    CX, R11
	JAE     done
	MOVLQZX (R10)(CX*4), BX
	CMPQ    BX, DX
	JAE     bad
	SHLQ    $6, BX
	VADDPD  (SI)(BX*1), Z1, Z1
	VADDPD  (R13)(BX*1), Z3, Z3
	INCQ    CX
	JMP     bloop

done:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VZEROUPPER
	MOVB    $1, ret+80(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ret+80(FP)
	RET

// laneBase is the class-2 cell of lane 0 for each byte j of an 8-byte chunk,
// 8j+1, as eight dwords; laneOne and laneStep are broadcast.
DATA laneBase<>+0(SB)/4, $1
DATA laneBase<>+4(SB)/4, $9
DATA laneBase<>+8(SB)/4, $17
DATA laneBase<>+12(SB)/4, $25
DATA laneBase<>+16(SB)/4, $33
DATA laneBase<>+20(SB)/4, $41
DATA laneBase<>+24(SB)/4, $49
DATA laneBase<>+28(SB)/4, $57
GLOBL laneBase<>(SB), RODATA|NOPTR, $32

DATA laneOne<>+0(SB)/4, $1
GLOBL laneOne<>(SB), RODATA|NOPTR, $4

DATA laneStep<>+0(SB)/4, $64
GLOBL laneStep<>(SB), RODATA|NOPTR, $4

// func compactChunks(compress *[256][8]uint32, packed *byte, chunks int, cells *uint32, w *[4]int)
//
// compactBytes over whole 8-byte chunks: per chunk, VPMOVZXBD widens its
// bytes to eight dwords in Y0, and for each lane l in order 0–3 the code
// x = byte>>2l has a non-zero dosage where its low bit is 0 (codes 00 and
// 10), of class 2−hi for its high bit hi, so its cell is 8b+2l+1−hi. The
// mask of those dwords (VMOVMSKPS) picks a row of compress, VPERMD moves the
// selected cells to the front in byte order, one unaligned 32-byte store
// writes all eight at lane l's cursor, and POPCNT of the mask advances it.
// Y9–Y12 hold lanes 0–3's 8j+2l+1 for the chunk's bytes j and step by 64,
// eight cells a byte, per chunk. VEX encodings only, so no SSE/AVX
// transition.
TEXT ·compactChunks(SB), NOSPLIT, $0-40
	MOVQ compress+0(FP), R8
	MOVQ packed+8(FP), SI
	MOVQ chunks+16(FP), CX
	MOVQ cells+24(FP), DI
	MOVQ w+32(FP), DX

	MOVQ 0(DX), R9
	MOVQ 8(DX), R10
	MOVQ 16(DX), R11
	MOVQ 24(DX), R12

	VPBROADCASTD laneOne<>(SB), Y15
	VPBROADCASTD laneStep<>(SB), Y14
	VPXOR        Y13, Y13, Y13
	VPADDD       Y15, Y15, Y8
	VMOVDQU      laneBase<>(SB), Y9
	VPADDD       Y8, Y9, Y10
	VPADDD       Y8, Y10, Y11
	VPADDD       Y8, Y11, Y12

	TESTQ CX, CX
	JZ    done

chunk:
	VPMOVZXBD (SI), Y0

	// lane 0
	VPAND     Y15, Y0, Y1
	VPCMPEQD  Y13, Y1, Y1
	VPSRLD    $1, Y0, Y2
	VPAND     Y15, Y2, Y2
	VPSUBD    Y2, Y9, Y2
	VMOVMSKPS Y1, AX
	MOVQ      AX, BX
	SHLQ      $5, BX
	VMOVDQU   (R8)(BX*1), Y3
	VPERMD    Y2, Y3, Y4
	VMOVDQU   Y4, (DI)(R9*4)
	POPCNTL   AX, AX
	ADDQ      AX, R9

	// lane 1
	VPSRLD    $2, Y0, Y5
	VPAND     Y15, Y5, Y1
	VPCMPEQD  Y13, Y1, Y1
	VPSRLD    $1, Y5, Y2
	VPAND     Y15, Y2, Y2
	VPSUBD    Y2, Y10, Y2
	VMOVMSKPS Y1, AX
	MOVQ      AX, BX
	SHLQ      $5, BX
	VMOVDQU   (R8)(BX*1), Y3
	VPERMD    Y2, Y3, Y4
	VMOVDQU   Y4, (DI)(R10*4)
	POPCNTL   AX, AX
	ADDQ      AX, R10

	// lane 2
	VPSRLD    $4, Y0, Y5
	VPAND     Y15, Y5, Y1
	VPCMPEQD  Y13, Y1, Y1
	VPSRLD    $1, Y5, Y2
	VPAND     Y15, Y2, Y2
	VPSUBD    Y2, Y11, Y2
	VMOVMSKPS Y1, AX
	MOVQ      AX, BX
	SHLQ      $5, BX
	VMOVDQU   (R8)(BX*1), Y3
	VPERMD    Y2, Y3, Y4
	VMOVDQU   Y4, (DI)(R11*4)
	POPCNTL   AX, AX
	ADDQ      AX, R11

	// lane 3: byte>>6 is the code alone, so its high bit needs no mask
	VPSRLD    $6, Y0, Y5
	VPAND     Y15, Y5, Y1
	VPCMPEQD  Y13, Y1, Y1
	VPSRLD    $7, Y0, Y2
	VPSUBD    Y2, Y12, Y2
	VMOVMSKPS Y1, AX
	MOVQ      AX, BX
	SHLQ      $5, BX
	VMOVDQU   (R8)(BX*1), Y3
	VPERMD    Y2, Y3, Y4
	VMOVDQU   Y4, (DI)(R12*4)
	POPCNTL   AX, AX
	ADDQ      AX, R12

	VPADDD Y14, Y9, Y9
	VPADDD Y14, Y10, Y10
	VPADDD Y14, Y11, Y11
	VPADDD Y14, Y12, Y12
	ADDQ   $8, SI
	DECQ   CX
	JNZ    chunk

done:
	MOVQ R9, 0(DX)
	MOVQ R10, 8(DX)
	MOVQ R11, 16(DX)
	MOVQ R12, 24(DX)
	VZEROUPPER
	RET
