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

// The AVX2 body of the PPM edge kernel: four lanes of a line per
// instruction. As in the MC body, each lane performs PPM.Edges's IEEE
// operations in its order, unfused, and the branches of ppmSlope and
// ppmEdges are ordered VCMPPD masks (a NaN fails every comparison, as
// the Go comparisons do) and selects: VBLENDVPD, or an AND or OR where
// the arm's value is +0 or a NaN.
//
// It runs one block of w ≤ ppmBlock lanes as the Go loop does: the
// slope of line 0 and the interface value below it go to the staging
// arrays s and f, then each line runs along the block, four lanes at a
// time, reading its cells in place and replacing s and f with the next
// line's. BX is the byte offset of four lanes' staging slots, AX that of
// their cells and edges: the same, except that when 4 does not divide w
// the last four lanes of the block run again from staging slots of
// their own (AX = w − 4 lanes, BX the next four slots), so no lane's s
// or f is read after it was replaced. Lanes are independent and the
// outputs do not alias the cells, so a lane computed twice gets the
// same bits twice.

DATA three<>+0(SB)/8, $3.0
GLOBL three<>(SB), RODATA|NOPTR, $8
DATA six<>+0(SB)/8, $6.0
GLOBL six<>(SB), RODATA|NOPTR, $8
DATA sign<>+0(SB)/8, $0x8000000000000000
GLOBL sign<>(SB), RODATA|NOPTR, $8

// Y15 holds the sign bit, Y14 zero, Y13 2 and Y12 ½.

// ABSF sets x to absf(x) with t = −x: max(−x, x) in VMAXPD's operand
// order returns −x only where −x > x, that is where x < 0, and x
// elsewhere, so −0 stays −0 and a NaN stays itself, as absf does.
#define ABSF(x, t) \
	VXORPD Y15, x, t; \
	VMAXPD x, t, x

// PPMSLOPE sets s to ppmSlope(dm, dp, dc) and clobbers dm, dp, dc, z
// and t. z marks the zero arm, dm·dp ≤ 0, which clears the lane to +0.
// t marks the lanes where dm or dp is NaN: Go's min, and so the slope,
// is NaN there, and the lane is set to all ones, a NaN. Every other lane
// has dm·dp > 0 or dm·dp = 0·∞:
//   - dm·dp > 0: dm and dp are nonzero and of one sign, so |dc| ≥
//     2·5e−324 and d is neither 0 nor NaN;
//   - 0·∞: one difference is ±0, and the other and d are ±∞.
// So VMINPD meets no NaN and no (±0, ∓0) pair there and is Go's min,
// only the d > 0 and d < 0 arms are taken (m, or −m by the d < 0 mask
// and blend), and |d| is d with its sign bit cleared. ppmSlope's 0·m arm
// (d ±0 or NaN) is taken only in NaN lanes. TestVectorEdgesMatchGo
// takes every arm in every lane position.
#define PPMSLOPE(dm, dp, dc, s, z, t) \
	VMULPD    dp, dm, z; \
	VCMPPD    $0x12, Y14, z, z; \
	VCMPPD    $0x03, dp, dm, t; \
	ABSF(dm, s); \
	VMULPD    Y13, dm, dm; \
	ABSF(dp, s); \
	VMULPD    Y13, dp, dp; \
	VMINPD    dp, dm, dm; \
	VMULPD    Y12, dc, dc; \
	VANDNPD   dc, Y15, s; \
	VMINPD    s, dm, dm; \
	VXORPD    Y15, dm, dp; \
	VCMPPD    $0x11, Y14, dc, s; \
	VBLENDVPD s, dp, dm, s; \
	VORPD     t, s, s; \
	VANDNPD   s, z, s

// LANES sets AX to the cell offset of the four lanes whose staging
// slots are at BX: BX, or the block's last four lanes (R12).
#define LANES \
	MOVQ    BX, AX; \
	CMPQ    AX, R12; \
	CMOVQGT R12, AX

// func ppmBlockAVX2(u []float64, stride, lines, n, w int, lo, hi []float64, s, f *[ppmBlock]float64)
//
// u starts at line −2 of the block's lane 0: line m is u[(m+2)·stride:].
// SI addresses u and moves up a line at a time, DX is the stride, R13
// the distance between the lines' edges (n lanes), CX the block width w
// ≥ 4 and R12 the offset of its last four lanes, all in bytes. R9 and
// R10 address the current line's left and right edges, R8 and R11 the
// staging arrays; DI counts the lines, lines ≥ 1.
TEXT ·ppmBlockAVX2(SB), NOSPLIT, $0-120
	MOVQ u_base+0(FP), SI
	MOVQ stride+24(FP), DX
	MOVQ lines+32(FP), DI
	MOVQ n+40(FP), R13
	MOVQ w+48(FP), CX
	MOVQ lo_base+56(FP), R9
	MOVQ hi_base+80(FP), R10
	MOVQ s+104(FP), R8
	MOVQ f+112(FP), R11
	SHLQ $3, DX
	SHLQ $3, R13
	SHLQ $3, CX
	LEAQ -32(CX), R12
	VBROADCASTSD sign<>(SB), Y15
	VXORPD       Y14, Y14, Y14
	VBROADCASTSD two<>(SB), Y13
	VBROADCASTSD half<>(SB), Y12
	XORQ BX, BX

ppmFirst:
	// The slope of line −1 (Y9), then s (Y2) and f (Y3) of line 0.
	LANES
	LEAQ    (SI)(AX*1), R14
	VMOVUPD (R14), Y10         // u_{−2}
	VMOVUPD (R14)(DX*1), Y11   // u_{−1}
	LEAQ    (R14)(DX*2), R14
	VMOVUPD (R14), Y0          // c = u_0
	VMOVUPD (R14)(DX*1), Y1    // d = u_{+1}
	VSUBPD  Y10, Y11, Y4
	VSUBPD  Y11, Y0, Y5
	VSUBPD  Y10, Y0, Y6
	PPMSLOPE(Y4, Y5, Y6, Y9, Y7, Y8)
	VSUBPD  Y11, Y0, Y4
	VSUBPD  Y0, Y1, Y5
	VSUBPD  Y11, Y1, Y6
	PPMSLOPE(Y4, Y5, Y6, Y2, Y7, Y8)
	// f = ½(u_{−1} + c) − (s − s_{−1})/6
	VADDPD  Y0, Y11, Y4
	VMULPD  Y12, Y4, Y4
	VSUBPD  Y9, Y2, Y5
	VBROADCASTSD six<>(SB), Y11
	VDIVPD  Y11, Y5, Y5
	VSUBPD  Y5, Y4, Y3
	VMOVUPD Y2, (R8)(BX*1)
	VMOVUPD Y3, (R11)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     ppmFirst
	LEAQ    (SI)(DX*2), SI     // line 0

ppmLine:
	XORQ BX, BX

ppmLanes:
	LANES
	LEAQ    (SI)(AX*1), R14
	VMOVUPD (R14), Y0          // c
	VMOVUPD (R14)(DX*1), Y1    // d
	VMOVUPD (R14)(DX*2), Y11   // e
	VMOVUPD (R8)(BX*1), Y2     // s
	VMOVUPD (R11)(BX*1), Y3    // f
	VSUBPD  Y0, Y1, Y4
	VSUBPD  Y1, Y11, Y5
	VSUBPD  Y0, Y11, Y6
	PPMSLOPE(Y4, Y5, Y6, Y9, Y7, Y8) // s' of d
	// f' = ½(c + d) − (s' − s)/6
	VADDPD  Y1, Y0, Y4
	VMULPD  Y12, Y4, Y4
	VSUBPD  Y2, Y9, Y5
	VBROADCASTSD six<>(SB), Y10
	VDIVPD  Y10, Y5, Y5
	VSUBPD  Y5, Y4, Y2         // f'
	VMOVUPD Y9, (R8)(BX*1)
	VMOVUPD Y2, (R11)(BX*1)
	// ppmEdges(aL = f, aR = f', c): Y4 = (aR − c)(c − aL) ≤ 0, the
	// extremum.
	VSUBPD  Y0, Y2, Y4
	VSUBPD  Y3, Y0, Y5
	VMULPD  Y5, Y4, Y4
	VCMPPD  $0x12, Y14, Y4, Y4
	// Δa and q = Δa(c − ½(aL + aR)), t = Δa·Δa/6
	VSUBPD  Y3, Y2, Y5
	VADDPD  Y2, Y3, Y6
	VMULPD  Y12, Y6, Y6
	VSUBPD  Y6, Y0, Y6
	VMULPD  Y6, Y5, Y6
	VMULPD  Y5, Y5, Y5
	VDIVPD  Y10, Y5, Y5
	VCMPPD  $0x1E, Y5, Y6, Y7  // q > t
	VXORPD  Y15, Y5, Y5
	VCMPPD  $0x11, Y5, Y6, Y8  // q < −t
	// t ≥ 0 or NaN, so the two arms are exclusive.
	VBROADCASTSD three<>(SB), Y5
	VMULPD  Y5, Y0, Y5         // 3c
	VMULPD  Y13, Y2, Y6
	VSUBPD  Y6, Y5, Y6         // 3c − 2aR
	VMULPD  Y13, Y3, Y10
	VSUBPD  Y10, Y5, Y10       // 3c − 2aL
	VBLENDVPD Y7, Y6, Y3, Y6   // lo
	VBLENDVPD Y8, Y10, Y2, Y10 // hi
	VBLENDVPD Y4, Y0, Y6, Y6
	VBLENDVPD Y4, Y0, Y10, Y10
	VMOVUPD Y6, (R9)(AX*1)
	VMOVUPD Y10, (R10)(AX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     ppmLanes

	ADDQ DX, SI
	ADDQ R13, R9
	ADDQ R13, R10
	DECQ DI
	JNZ  ppmLine
	VZEROUPPER
	RET
