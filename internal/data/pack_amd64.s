#include "textflag.h"

// func cpuFeatures() (avx2, avx512f bool)
//
// Reports what the CPU has and the OS saves. Both need CPUID leaf 1's POPCNT
// (ECX bit 23), OSXSAVE (ECX bit 27) and AVX (ECX bit 28) and XCR0's SSE and
// AVX state (bits 1 and 2), and leaf 7, read only where leaf 0 says it
// exists. avx2 adds leaf 7's AVX2 (EBX bit 5); avx512f adds leaf 7's
// AVX-512F (EBX bit 16) and XCR0's opmask and zmm state (bits 5, 6 and 7).
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, avx512f+1(FP)

	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   done

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18800000, CX
	CMPL CX, $0x18800000
	JNE  done

	XORL   CX, CX
	XGETBV
	MOVL   AX, R8
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done

	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    zmm
	MOVB  $1, avx2+0(FP)

zmm:
	TESTL $0x10000, BX
	JZ    done
	ANDL  $0xe6, R8
	CMPL  R8, $0xe6
	JNE   done
	MOVB  $1, avx512f+1(FP)

done:
	RET

// func packCanon64(text *byte, groups int, row *byte) (sum uint64, ok bool)
//
// Packs groups 64-byte groups of canonical genotype text, "d d d … d " with
// d in {0,1,2}, into 8 row bytes each, in AVX2. A group is two ymm loads of
// sixteen 16-bit lanes, digit in the low byte and space in the high byte. Per
// lane, x = lane XOR "0 " is the digit if the lane is canonical: then no bit
// outside the two digit bits is set and x is not 3. Every lane's x is ORed
// into Y12 and every lane's x AND x>>1 into Y13, and both are masked and
// tested once at the end, so ok is the word loop's check over the same
// lanes. The digits are summed with VPSADBW. The code (x XOR 3) − (x>>1) maps
// 0 → 11, 1 → 10, 2 → 00. VPMADDWD by {1,4} gathers two codes into a dword;
// VPACKSSDW packs the two loads' dwords to words within each 128-bit half,
// and VPERMQ puts the halves back in patient order; VPMADDWD by {1,16}
// gathers four codes into a dword, and the final packs narrow the eight
// dwords to the group's 8 row bytes: byte k holds patients 4k … 4k+3 in its
// 2-bit lanes, low to high. Only VEX-encoded instructions touch the vector
// registers, and VZEROUPPER ends the routine.
TEXT ·packCanon64(SB), NOSPLIT, $0-33
	MOVQ text+0(FP), SI
	MOVQ groups+8(FP), CX
	MOVQ row+16(FP), DI

	MOVQ         $0x2030203020302030, AX
	VMOVQ        AX, X8
	VPBROADCASTQ X8, Y8                  // "0 " in every lane
	MOVQ         $0x0003000300030003, AX
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9                  // 3 in every lane
	MOVQ         $0x0004000100040001, AX
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10                // {1,4} per lane pair
	MOVQ         $0x0010000100100001, AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11                // {1,16} per lane pair

	VPXOR Y12, Y12, Y12 // OR of every x
	VPXOR Y13, Y13, Y13 // OR of every x AND x>>1
	VPXOR Y14, Y14, Y14 // digit sum, one per qword
	VPXOR Y15, Y15, Y15

	TESTQ CX, CX
	JZ    done

loop:
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VPXOR   Y8, Y0, Y0
	VPXOR   Y8, Y1, Y1
	VPOR    Y0, Y12, Y12
	VPOR    Y1, Y12, Y12

	VPADDB   Y0, Y1, Y4
	VPSADBW  Y15, Y4, Y4
	VPADDQ   Y4, Y14, Y14

	VPSRLW $1, Y0, Y4
	VPAND  Y0, Y4, Y5
	VPXOR  Y9, Y0, Y0
	VPSUBW Y4, Y0, Y0
	VPSRLW $1, Y1, Y6
	VPAND  Y1, Y6, Y7
	VPXOR  Y9, Y1, Y1
	VPSUBW Y6, Y1, Y1
	VPOR   Y5, Y13, Y13
	VPOR   Y7, Y13, Y13

	VPMADDWD     Y10, Y0, Y0
	VPMADDWD     Y10, Y1, Y1
	VPACKSSDW    Y1, Y0, Y0
	VPERMQ       $0xd8, Y0, Y0
	VPMADDWD     Y11, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKUSDW    X1, X0, X0
	VPACKUSWB    X0, X0, X0
	VMOVQ        X0, (DI)

	ADDQ $64, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  loop

done:
	MOVQ         $0xfffcfffcfffcfffc, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	VPAND        Y0, Y12, Y12
	MOVQ         $0x0001000100010001, AX
	VMOVQ        AX, X1
	VPBROADCASTQ X1, Y1
	VPAND        Y1, Y13, Y13
	VPOR         Y13, Y12, Y12
	VPTEST       Y12, Y12
	SETEQ        ok+32(FP)

	VEXTRACTI128 $1, Y14, X0
	VPADDQ       X0, X14, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, sum+24(FP)
	VZEROUPPER
	RET
