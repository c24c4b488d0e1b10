#include "textflag.h"

// The AVX2 body of the PLM-MC edge kernel: four cells per instruction.
// Each lane performs mcEdges's IEEE operations in its order (VSUBPD,
// VADDPD and VMULPD round per lane exactly as SUBSD, ADDSD and MULSD do)
// and never fuses a multiply with an add, so every lane is bitwise the
// Go loop. mcSlope's two sign branches are ordered VCMPPD masks (a NaN
// difference fails both, as the Go comparisons do) and the select is a
// mask and a VBLENDVPD. Where a branch is taken its three candidates are
// all of one strict sign and none is NaN, so VMINPD is Go's min there,
// and −min(−a, −b, −c) is max(a, b, c) bit for bit (negation is exact):
// the Go min semantics for NaN and ±0 are never observable.
//
// BX is the byte offset of the current four cells, CX the end of the
// line and R12 the start of its last four. When 4 does not divide the
// line, the loop ends by running those last four again: lanes are
// independent and the outputs do not alias the inputs, so a cell
// computed twice gets the same bits twice.

DATA two<>+0(SB)/8, $2.0
GLOBL two<>(SB), RODATA|NOPTR, $8
DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

// func mcEdgesAVX2(um, u0, up, lo, hi []float64)
//
// SI, DI and R8 address the lower neighbours, the cells and the upper
// neighbours; R9 and R10 the left and right edges. len(u0) ≥ 4 cells.
TEXT ·mcEdgesAVX2(SB), NOSPLIT, $0-120
	MOVQ um_base+0(FP), SI
	MOVQ u0_base+24(FP), DI
	MOVQ u0_len+32(FP), CX
	MOVQ up_base+48(FP), R8
	MOVQ lo_base+72(FP), R9
	MOVQ hi_base+96(FP), R10
	SHLQ $3, CX
	LEAQ -32(CX), R12
	XORQ BX, BX
	VBROADCASTSD two<>(SB), Y14
	VBROADCASTSD half<>(SB), Y15
	VXORPD       Y13, Y13, Y13

mcLoop:
	VMOVUPD (DI)(BX*1), Y0 // c
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD (R8)(BX*1), Y2
	VSUBPD  Y1, Y0, Y3     // dm = c − u_{−1}
	VSUBPD  Y0, Y2, Y4     // dp = u_{+1} − c
	// The candidates 2dm, 2dp and (dm + dp)/2.
	VMULPD  Y14, Y3, Y5
	VMULPD  Y14, Y4, Y6
	VADDPD  Y4, Y3, Y7
	VMULPD  Y15, Y7, Y7
	VMINPD  Y6, Y5, Y8
	VMINPD  Y7, Y8, Y8     // both > 0: min(2dm, 2dp, (dm+dp)/2)
	VMAXPD  Y6, Y5, Y9
	VMAXPD  Y7, Y9, Y9     // both < 0: −min(−2dm, −2dp, −(dm+dp)/2)
	VCMPPD  $0x1E, Y13, Y3, Y10 // dm > 0
	VCMPPD  $0x1E, Y13, Y4, Y11 // dp > 0
	VANDPD  Y11, Y10, Y10
	VCMPPD  $0x11, Y13, Y3, Y11 // dm < 0
	VCMPPD  $0x11, Y13, Y4, Y12 // dp < 0
	VANDPD  Y12, Y11, Y11
	// s = the positive branch, else the negative one, else +0.
	VANDPD    Y8, Y10, Y8
	VBLENDVPD Y11, Y9, Y8, Y8
	// lo = c − s/2, hi = c + s/2.
	VMULPD  Y15, Y8, Y8
	VSUBPD  Y8, Y0, Y1
	VADDPD  Y8, Y0, Y2
	VMOVUPD Y1, (R9)(BX*1)
	VMOVUPD Y2, (R10)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R12
	JLE     mcLoop
	CMPQ    BX, CX
	JGE     mcDone
	MOVQ    R12, BX
	JMP     mcLoop

mcDone:
	VZEROUPPER
	RET
