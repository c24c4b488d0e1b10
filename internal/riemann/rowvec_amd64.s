#include "textflag.h"

// The AVX2 row kernels: four faces per instruction. Each lane performs the
// Go loop's IEEE operations in the Go loop's order (VADDPD, VSUBPD,
// VMULPD, VDIVPD and VSQRTPD round per lane exactly as ADDSD, SUBSD,
// MULSD, DIVSD and SQRTSD do) and never fuses a multiply with an add, so
// every lane is bitwise the scalar loop. Each branch of the Go loop is a
// VCMPPD mask (ordered, so a NaN lane takes the arm the Go comparison
// takes) and a VBLENDVPD select.
//
// The kernels read the slabs through the Faces and row structs they are
// given: the slice headers are the table of streams, and R9, R10 and R11
// hold the header offsets (24 bytes a component) of the normal and the
// two transverse components of direction d. BX is the byte offset of the
// current four faces, CX the end of the row and R12 the start of its last
// four faces. When 4 does not divide the row, the loop ends by running
// those last four again: lanes are independent, so a face computed twice
// gets the same bits twice. AX addresses one slab at a time.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8
DATA four<>+0(SB)/8, $4.0
GLOBL four<>(SB), RODATA|NOPTR, $8
DATA mhalf<>+0(SB)/8, $-0.5
GLOBL mhalf<>(SB), RODATA|NOPTR, $8
DATA eps<>+0(SB)/8, $1e-12
GLOBL eps<>(SB), RODATA|NOPTR, $8
DATA sign<>+0(SB)/8, $0x8000000000000000
GLOBL sign<>(SB), RODATA|NOPTR, $8

// Slab headers of a Faces at register b.
#define fD(b) 0(b)
#define fSn(b) 24(b)(R9*1)
#define fSt1(b) 24(b)(R10*1)
#define fSt2(b) 24(b)(R11*1)
#define fTau(b) 96(b)
#define fFD(b) 120(b)
#define fFn(b) 144(b)(R9*1)
#define fFt1(b) 144(b)(R10*1)
#define fFt2(b) 144(b)(R11*1)
#define fFTau(b) 216(b)
#define fVd(b) 240(b)
#define fP(b) 264(b)
#define fLm(b) 288(b)
#define fLp(b) 312(b)

// The unrotated momentum and momentum-flux slabs, for the componentwise
// combine.
#define fSx(b) 24(b)
#define fSy(b) 48(b)
#define fSz(b) 72(b)
#define fFSx(b) 144(b)
#define fFSy(b) 168(b)
#define fFSz(b) 192(b)

// Slab headers of a [state.NComp][]float64 row at register b: component
// 0 (ρ or D), the vector (x, y, z at 24, 48, 72) and its rotation to
// (normal, transverse, transverse), and component 4 (p or τ).
#define c0(b) 0(b)
#define cX(b) 24(b)
#define cY(b) 48(b)
#define cZ(b) 72(b)
#define cN(b) 24(b)(R9*1)
#define cT1(b) 24(b)(R10*1)
#define cT2(b) 24(b)(R11*1)
#define c4(b) 96(b)

// ROT sets R9, R10, R11 to the header offsets of the (normal, transverse,
// transverse) components of direction d, as rot orders them: x → (x, y,
// z), y → (y, x, z), z → (z, x, y).
#define ROT(d) \
	MOVQ    d, R9; \
	XORQ    R10, R10; \
	MOVQ    $48, R11; \
	MOVQ    $24, R12; \
	CMPQ    R9, $0; \
	CMOVQEQ R12, R10; \
	CMPQ    R9, $2; \
	CMOVQEQ R12, R11; \
	LEAQ    (R9)(R9*2), R9; \
	SHLQ    $3, R9

// SPAN sets BX, CX and R12 for faces [lo, lo+n).
#define SPAN(lo, n) \
	MOVQ lo, BX; \
	MOVQ n, CX; \
	ADDQ BX, CX; \
	SHLQ $3, BX; \
	SHLQ $3, CX; \
	LEAQ -32(CX), R12

// NEXT advances to the next four faces and jumps to loop, re-running the
// row's last four when 1 to 3 faces remain, or on to done at the end.
#define NEXT(loop, done) \
	ADDQ $32, BX; \
	CMPQ BX, R12; \
	JLE  loop; \
	CMPQ BX, CX; \
	JGE  done; \
	MOVQ R12, BX; \
	JMP  loop

// LD loads the four faces of the slab whose header is at addr.
#define LD(addr, y) MOVQ addr, AX; VMOVUPD (AX)(BX*1), y

// ST stores y to the four faces of the slab whose header is at addr.
#define ST(y, addr) MOVQ addr, AX; VMOVUPD y, (AX)(BX*1)

// OPM applies op to the slab whose header is at addr and to src.
#define OPM(op, addr, src, dst) MOVQ addr, AX; op (AX)(BX*1), src, dst

// BLM blends: dst = mask ? the slab whose header is at addr : src.
#define BLM(mask, addr, src, dst) MOVQ addr, AX; VBLENDVPD mask, (AX)(BX*1), src, dst

// GOMIN sets dst to Go's min(a, b) per lane: NaN if either is NaN, and
// −0 for a (±0, ∓0) pair. VMINPD alone returns b in both cases.
#define GOMIN(a, b, dst, t1, t2) \
	VMINPD    b, a, dst; \
	VCMPPD    $0x00, b, a, t1; \
	VORPD     b, a, t2; \
	VBLENDVPD t1, t2, dst, dst; \
	VCMPPD    $0x03, b, a, t1; \
	VADDPD    b, a, t2; \
	VBLENDVPD t1, t2, dst, dst

// GOMAX sets dst to Go's max(a, b) per lane: NaN if either is NaN, and
// +0 for a (±0, ∓0) pair.
#define GOMAX(a, b, dst, t1, t2) \
	VMAXPD    b, a, dst; \
	VCMPPD    $0x00, b, a, t1; \
	VANDPD    b, a, t2; \
	VBLENDVPD t1, t2, dst, dst; \
	VCMPPD    $0x03, b, a, t1; \
	VADDPD    b, a, t2; \
	VBLENDVPD t1, t2, dst, dst

// func evalRowAVX2(f *Faces, q *[state.NComp][]float64, lo, n int, gamma, gog float64, d state.Direction)
//
// SI holds f and DI q. With gamma ≤ 0, λ− and λ+ hold h and c_s² on entry.
TEXT ·evalRowAVX2(SB), NOSPLIT, $0-56
	MOVQ f+0(FP), SI
	MOVQ q+8(FP), DI
	ROT(d+48(FP))
	SPAN(lo+16(FP), n+24(FP))
	// R8 = gamma > 0: the Γ-law gas, else h and c_s² are staged.
	MOVSD   gamma+32(FP), X0
	XORPS   X1, X1
	XORL    R8, R8
	UCOMISD X1, X0
	SETHI   R8B
	VBROADCASTSD gamma+32(FP), Y14
	VBROADCASTSD gog+40(FP), Y13
	VBROADCASTSD one<>(SB), Y15

evalLoop:
	LD(c0(DI), Y0) // ρ
	LD(c4(DI), Y1) // p
	LD(cX(DI), Y2)
	LD(cY(DI), Y3)
	LD(cZ(DI), Y4)
	LD(cN(DI), Y5) // v_n
	// v² = v_x·v_x + v_y·v_y + v_z·v_z
	VMULPD Y2, Y2, Y6
	VMULPD Y3, Y3, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y4, Y4, Y7
	VADDPD Y7, Y6, Y6
	TESTB  R8B, R8B
	JZ     evalStaged
	// h = 1 + gog·p/ρ, c_s² = Γ·p/(ρh)
	VMULPD Y1, Y13, Y7
	VDIVPD Y0, Y7, Y7
	VADDPD Y7, Y15, Y7
	VMULPD Y1, Y14, Y8
	VMULPD Y7, Y0, Y9
	VDIVPD Y9, Y8, Y8
	JMP    evalState

evalStaged:
	LD(fLm(SI), Y7) // h
	LD(fLp(SI), Y8) // c_s²
	VMULPD Y7, Y0, Y9

evalState:
	// W = 1/√(1−v²), ρhW² = ((ρh)·W)·W, D = ρW
	VSUBPD  Y6, Y15, Y10
	VSQRTPD Y10, Y10
	VDIVPD  Y10, Y15, Y10
	VMULPD  Y10, Y9, Y9
	VMULPD  Y10, Y9, Y9
	VMULPD  Y10, Y0, Y11
	VMULPD  Y5, Y9, Y0 // S_n
	LD(cT1(DI), Y2)
	VMULPD  Y2, Y9, Y2 // S_t1
	LD(cT2(DI), Y3)
	VMULPD  Y3, Y9, Y3 // S_t2
	VSUBPD  Y1, Y9, Y4
	VSUBPD  Y11, Y4, Y4 // τ = ρhW² − p − D
	ST(Y11, fD(SI))
	ST(Y0, fSn(SI))
	ST(Y2, fSt1(SI))
	ST(Y3, fSt2(SI))
	ST(Y4, fTau(SI))
	ST(Y5, fVd(SI))
	ST(Y1, fP(SI))
	VMULPD  Y5, Y11, Y4 // F(D) = D·v_n
	ST(Y4, fFD(SI))
	VMULPD  Y5, Y0, Y12
	VADDPD  Y1, Y12, Y12 // F(S_n) = S_n·v_n + p
	ST(Y12, fFn(SI))
	VMULPD  Y5, Y2, Y12
	ST(Y12, fFt1(SI))
	VMULPD  Y5, Y3, Y12
	ST(Y12, fFt2(SI))
	VSUBPD  Y4, Y0, Y12 // F(τ) = S_n − D·v_n
	ST(Y12, fFTau(SI))

	// state.SignalSpeeds(c_s², v², v_n)
	VMULPD    Y8, Y6, Y0
	VSUBPD    Y0, Y15, Y0 // den = 1 − v²c_s²
	VSUBPD    Y6, Y15, Y1
	VMULPD    Y5, Y5, Y2
	VSUBPD    Y8, Y15, Y3 // 1 − c_s²
	VMULPD    Y3, Y2, Y2
	VSUBPD    Y2, Y0, Y2
	VMULPD    Y2, Y1, Y1 // disc
	VXORPD    Y4, Y4, Y4
	VCMPPD    $0x11, Y4, Y1, Y2 // disc < 0
	VBLENDVPD Y2, Y4, Y1, Y1
	VSQRTPD   Y1, Y1
	VSQRTPD   Y8, Y2
	VMULPD    Y2, Y1, Y1 // root
	VMULPD    Y3, Y5, Y2 // v_n(1 − c_s²)
	VSUBPD    Y1, Y2, Y3
	VDIVPD    Y0, Y3, Y3
	ST(Y3, fLm(SI))
	VADDPD    Y1, Y2, Y3
	VDIVPD    Y0, Y3, Y3
	ST(Y3, fLp(SI))

	NEXT(evalLoop, evalDone)

evalDone:
	VZEROUPPER
	RET

// KSEL loads the slab of the side containing the face: the left one
// where Y9 (λ* ≥ 0) is set, the right one elsewhere.
#define KSEL(field, dst) LD(field(DI), dst); BLM(Y9, field(SI), dst, dst)

// OUT stores the star flux y to the output slab at addr, except in the
// upwind lanes: the right flux where Y12 (S_R ≤ 0) is set, the left flux
// where Y11 (S_L ≥ 0) is, the left taking precedence as in the Go switch.
#define OUT(y, field, addr) \
	BLM(Y12, field(DI), y, y); \
	BLM(Y11, field(SI), y, y); \
	ST(y, addr)

// func hllcRowAVX2(l, r *Faces, fx *[state.NComp][]float64, lo, n int, d state.Direction)
//
// SI holds l, DI r and DX fx.
TEXT ·hllcRowAVX2(SB), NOSPLIT, $0-48
	MOVQ l+0(FP), SI
	MOVQ r+8(FP), DI
	MOVQ fx+16(FP), DX
	ROT(d+40(FP))
	SPAN(lo+24(FP), n+32(FP))

hllcLoop:
	// S_L = min(λ−(L), λ−(R)), S_R = max(λ+(L), λ+(R))
	LD(fLm(SI), Y0)
	LD(fLm(DI), Y1)
	GOMIN(Y0, Y1, Y15, Y2, Y3)
	LD(fLp(SI), Y0)
	LD(fLp(DI), Y1)
	GOMAX(Y0, Y1, Y14, Y2, Y3)

	// HLL state and flux of E = τ + D and of m = S_n.
	VBROADCASTSD one<>(SB), Y13
	VSUBPD Y15, Y14, Y0
	VDIVPD Y0, Y13, Y13  // inv = 1/(S_R − S_L)
	VMULPD Y14, Y15, Y12 // S_L·S_R
	LD(fTau(SI), Y0)
	OPM(VADDPD, fD(SI), Y0, Y0) // E_L
	LD(fTau(DI), Y1)
	OPM(VADDPD, fD(DI), Y1, Y1) // E_R
	LD(fFTau(SI), Y2)
	OPM(VADDPD, fFD(SI), Y2, Y2) // F(E_L)
	LD(fFTau(DI), Y3)
	OPM(VADDPD, fFD(DI), Y3, Y3) // F(E_R)
	// E_hll = (S_R·E_R − S_L·E_L + F(E_L) − F(E_R))·inv
	VMULPD Y1, Y14, Y4
	VMULPD Y0, Y15, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD Y2, Y4, Y4
	VSUBPD Y3, Y4, Y4
	VMULPD Y13, Y4, Y4
	// F(E)_hll = (S_R·F(E_L) − S_L·F(E_R) + S_L·S_R·(E_R − E_L))·inv
	VMULPD Y2, Y14, Y5
	VMULPD Y3, Y15, Y6
	VSUBPD Y6, Y5, Y5
	VSUBPD Y0, Y1, Y6
	VMULPD Y6, Y12, Y6
	VADDPD Y6, Y5, Y5
	VMULPD Y13, Y5, Y5
	LD(fSn(SI), Y0) // m_L
	LD(fSn(DI), Y1) // m_R
	LD(fFn(SI), Y2) // F(m_L)
	LD(fFn(DI), Y3) // F(m_R)
	VMULPD Y1, Y14, Y6
	VMULPD Y0, Y15, Y7
	VSUBPD Y7, Y6, Y6
	VADDPD Y2, Y6, Y6
	VSUBPD Y3, Y6, Y6
	VMULPD Y13, Y6, Y6 // m_hll
	VMULPD Y2, Y14, Y7
	VMULPD Y3, Y15, Y8
	VSUBPD Y8, Y7, Y7
	VSUBPD Y0, Y1, Y8
	VMULPD Y8, Y12, Y8
	VADDPD Y8, Y7, Y7
	VMULPD Y13, Y7, Y7 // F(m)_hll

	// Contact speed: a = F(E)_hll (Y5), b = −(E_hll + F(m)_hll) (Y8),
	// c = m_hll (Y6).
	VBROADCASTSD sign<>(SB), Y12
	VADDPD  Y7, Y4, Y8
	VXORPD  Y12, Y8, Y8
	VANDNPD Y5, Y12, Y9
	VANDNPD Y8, Y12, Y10
	VANDNPD Y6, Y12, Y11
	VADDPD  Y11, Y10, Y10
	VBROADCASTSD eps<>(SB), Y11
	VMULPD  Y10, Y11, Y10
	VCMPPD  $0x1E, Y10, Y9, Y9 // |a| > 1e-12(|b| + |c|): the quadratic root
	// disc = b·b − 4·a·c, raised to 0 when negative
	VBROADCASTSD four<>(SB), Y10
	VMULPD    Y5, Y10, Y10
	VMULPD    Y6, Y10, Y10
	VMULPD    Y8, Y8, Y11
	VSUBPD    Y10, Y11, Y10
	VXORPD    Y4, Y4, Y4
	VCMPPD    $0x11, Y4, Y10, Y11
	VBLENDVPD Y11, Y4, Y10, Y10
	VSQRTPD   Y10, Y10
	// q = −0.5·(b + Copysign(√disc, b)); λ* = c/q
	VANDNPD   Y10, Y12, Y10
	VANDPD    Y8, Y12, Y11
	VORPD     Y11, Y10, Y10
	VADDPD    Y10, Y8, Y10
	VBROADCASTSD mhalf<>(SB), Y11
	VMULPD    Y10, Y11, Y10
	VDIVPD    Y10, Y6, Y10
	// the linear root −c/b
	VXORPD    Y12, Y6, Y11
	VDIVPD    Y8, Y11, Y11
	VBLENDVPD Y9, Y10, Y11, Y10
	// clamp λ* into [S_L, S_R]
	VCMPPD    $0x11, Y15, Y10, Y11
	VBLENDVPD Y11, Y15, Y10, Y10
	VCMPPD    $0x1E, Y14, Y10, Y11
	VBLENDVPD Y11, Y14, Y10, Y10
	// p* = −F(E)_hll·λ* + F(m)_hll
	VXORPD    Y12, Y5, Y5
	VMULPD    Y10, Y5, Y5
	VADDPD    Y7, Y5, Y5

	// The upwind lanes: Y11 = (S_L ≥ 0), Y12 = (S_R ≤ 0).
	VXORPD    Y4, Y4, Y4
	VCMPPD    $0x1D, Y4, Y15, Y11
	VCMPPD    $0x12, Y4, Y14, Y12

	// λ* ≥ 0 takes the left star state: Y9 picks side K, Y13 = S_K.
	VCMPPD    $0x1D, Y4, Y10, Y9
	VBLENDVPD Y9, Y15, Y14, Y13

	// Live: Y5 p*, Y9 side, Y10 λ*, Y11 and Y12 the upwind masks, Y13 S_K.
	KSEL(fVd, Y0)        // v_K
	VSUBPD Y0, Y13, Y1   // S_K − v_K
	VSUBPD Y10, Y13, Y2
	VBROADCASTSD one<>(SB), Y3
	VDIVPD Y2, Y3, Y2    // invK = 1/(S_K − λ*)
	VMULPD Y2, Y1, Y14   // adv = (S_K − v_K)·invK
	KSEL(fD, Y3)         // D_K
	VMULPD Y1, Y3, Y4
	VMULPD Y2, Y4, Y4    // D* = D_K(S_K − v_K)·invK
	// F(D) = F_K(D) + S_K(D* − D_K)
	VSUBPD Y3, Y4, Y6
	VMULPD Y6, Y13, Y6
	KSEL(fFD, Y7)
	VADDPD Y6, Y7, Y6
	OUT(Y6, fFD, c0(DX))
	// E* = (E_K(S_K − v_K) + p*λ* − p_K v_K)·invK
	KSEL(fTau, Y6)       // τ_K
	VADDPD Y3, Y6, Y7    // E_K = τ_K + D_K
	VMULPD Y1, Y7, Y7
	VMULPD Y10, Y5, Y8
	VADDPD Y8, Y7, Y7
	KSEL(fP, Y8)         // p_K
	VMULPD Y0, Y8, Y15
	VSUBPD Y15, Y7, Y7
	VMULPD Y2, Y7, Y7
	// F(τ) = F_K(τ) + S_K(E* − D* − τ_K)
	VSUBPD Y4, Y7, Y7
	VSUBPD Y6, Y7, Y7
	VMULPD Y7, Y13, Y7
	KSEL(fFTau, Y6)
	VADDPD Y7, Y6, Y6
	OUT(Y6, fFTau, c4(DX))
	// m* = (m_K(S_K − v_K) + p* − p_K)·invK; F(S_n) = F_K(S_n) + S_K(m* − m_K)
	KSEL(fSn, Y3)
	VMULPD Y1, Y3, Y4
	VADDPD Y5, Y4, Y4
	VSUBPD Y8, Y4, Y4
	VMULPD Y2, Y4, Y4
	VSUBPD Y3, Y4, Y4
	VMULPD Y4, Y13, Y4
	KSEL(fFn, Y6)
	VADDPD Y4, Y6, Y6
	OUT(Y6, fFn, cN(DX))
	// F(S_t) = F_K(S_t) + S_K(S_t·adv − S_t), both transverse components
	KSEL(fSt1, Y3)
	VMULPD Y14, Y3, Y4
	VSUBPD Y3, Y4, Y4
	VMULPD Y4, Y13, Y4
	KSEL(fFt1, Y6)
	VADDPD Y4, Y6, Y6
	OUT(Y6, fFt1, cT1(DX))
	KSEL(fSt2, Y3)
	VMULPD Y14, Y3, Y4
	VSUBPD Y3, Y4, Y4
	VMULPD Y4, Y13, Y4
	KSEL(fFt2, Y6)
	VADDPD Y4, Y6, Y6
	OUT(Y6, fFt2, cT2(DX))

	NEXT(hllcLoop, hllcDone)

hllcDone:
	VZEROUPPER
	RET

// HLLOUT combines one conserved component: the slabs whose headers are
// at u (state) and fl (flux) in l (SI) and r (DI), into the output slab
// whose header is at o. The fan is (S_R·F_L − S_L·F_R + (S_L·S_R)(U_R −
// U_L))·inv; the right flux replaces it where Y10 (S_R ≤ 0) is set and
// the left flux where Y11 (S_L ≥ 0) is, the left taking precedence as in
// the Go switch.
#define HLLOUT(u, fl, o) \
	LD(fl(SI), Y0); \
	LD(fl(DI), Y1); \
	VMULPD    Y0, Y14, Y2; \
	VMULPD    Y1, Y15, Y3; \
	VSUBPD    Y3, Y2, Y2; \
	LD(u(DI), Y3); \
	OPM(VSUBPD, u(SI), Y3, Y3); \
	VMULPD    Y3, Y12, Y3; \
	VADDPD    Y3, Y2, Y2; \
	VMULPD    Y13, Y2, Y2; \
	VBLENDVPD Y10, Y1, Y2, Y2; \
	VBLENDVPD Y11, Y0, Y2, Y2; \
	ST(Y2, o(DX))

// func hllRowAVX2(l, r *Faces, fx *[state.NComp][]float64, lo, n int)
//
// SI holds l, DI r and DX fx. The HLL combine is componentwise, so no
// slab is rotated: output component k is the state slab at 24k and the
// flux slab at 120 + 24k.
TEXT ·hllRowAVX2(SB), NOSPLIT, $0-40
	MOVQ l+0(FP), SI
	MOVQ r+8(FP), DI
	MOVQ fx+16(FP), DX
	SPAN(lo+24(FP), n+32(FP))
	VXORPD Y9, Y9, Y9

hllLoop:
	// S_L = min(λ−(L), λ−(R)) in Y15, S_R = max(λ+(L), λ+(R)) in Y14
	LD(fLm(SI), Y0)
	LD(fLm(DI), Y1)
	GOMIN(Y0, Y1, Y15, Y2, Y3)
	LD(fLp(SI), Y0)
	LD(fLp(DI), Y1)
	GOMAX(Y0, Y1, Y14, Y2, Y3)
	VBROADCASTSD one<>(SB), Y13
	VSUBPD Y15, Y14, Y0
	VDIVPD Y0, Y13, Y13  // inv = 1/(S_R − S_L)
	VMULPD Y14, Y15, Y12 // S_L·S_R
	VCMPPD $0x12, Y9, Y14, Y10 // S_R ≤ 0
	VCMPPD $0x1D, Y9, Y15, Y11 // S_L ≥ 0
	HLLOUT(fD, fFD, c0)
	HLLOUT(fSx, fFSx, cX)
	HLLOUT(fSy, fFSy, cY)
	HLLOUT(fSz, fFSz, cZ)
	HLLOUT(fTau, fFTau, c4)

	NEXT(hllLoop, hllDone)

hllDone:
	VZEROUPPER
	RET
