package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"rhsc/internal/grid"
	"rhsc/internal/par"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
)

// blast3DGrid builds a small 3-D grid with an off-centre blast so that no
// direction or octant is symmetric — any sweep-order or ownership bug
// shows up as a bitwise difference.
func blast3DGrid(nx, ny, nz int) *grid.Grid {
	g := grid.New(grid.Geometry{Nx: nx, Ny: ny, Nz: nz, Ng: 2,
		X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1})
	g.SetAllBCs(grid.Outflow)
	return g
}

func blast3DInit(x, y, z float64) state.Prim {
	dx, dy, dz := x-0.4, y-0.55, z-0.45
	if dx*dx+dy*dy+dz*dz < 0.03 {
		return state.Prim{Rho: 1, P: 50}
	}
	return state.Prim{Rho: 1, P: 0.1}
}

// runTiled advances a fixed blast problem for a few steps under the given
// config mutations and returns the full conserved state (all components,
// ghosts included) for bitwise comparison.
func runTiled(t *testing.T, mut func(*Config)) []float64 {
	t.Helper()
	g := blast3DGrid(12, 10, 8)
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(blast3DInit); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, 0, state.NComp*g.NCells())
	for c := 0; c < state.NComp; c++ {
		out = append(out, g.U.Comp[c]...)
	}
	return out
}

// stripGoldenFile freezes results of the deleted per-direction strip
// traversal.
const stripGoldenFile = "testdata/strip_golden.json"

// planeLanes is the x chunk width of the face planes the sweeps run.
const planeLanes = grid.PlaneLanes

// stripGolden is one frozen result of a deleted code path (a testdata
// golden file entry).
type stripGolden struct {
	FNV64    string `json:"fnv64"`
	Troubled int64  `json:"troubled"`
	Repaired int64  `json:"repaired"`
}

// fieldFingerprint is the FNV-64a of the field's float64 bit patterns,
// little-endian, in slice order.
func fieldFingerprint(v []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadGolden returns the named golden of file for this architecture, or
// skips the golden comparison (with a log line) where none was recorded:
// other architectures contract multiply-adds differently, so their bits
// legitimately differ from the recording host's.
func loadGolden(t *testing.T, file, name string) (stripGolden, bool) {
	t.Helper()
	blob, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(blob, &all); err != nil {
		t.Fatal(err)
	}
	raw, ok := all[runtime.GOARCH]
	if !ok {
		t.Logf("%s: no goldens recorded for GOARCH=%s; skipping the golden comparison", file, runtime.GOARCH)
		return stripGolden{}, false
	}
	var arch map[string]stripGolden
	if err := json.Unmarshal(raw, &arch); err != nil {
		t.Fatal(err)
	}
	g, ok := arch[name]
	if !ok {
		t.Fatalf("%s: golden %q missing for GOARCH=%s", file, name, runtime.GOARCH)
	}
	return g, true
}

func requireBitwiseEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, want[i], got[i])
		}
	}
}

// Every interior (j, k) pencil must be owned by exactly one tile, for any
// tile size — including sizes that don't divide the grid and sizes larger
// than the grid — and for 1-D, 2-D and 3-D shapes.
func TestTileDecompositionCovers(t *testing.T) {
	shapes := []struct {
		name       string
		nx, ny, nz int
	}{
		{"1d", 16, 1, 1},
		{"2d", 16, 12, 1},
		{"3d", 12, 10, 6},
	}
	sizes := []int{1, 3, 5, 8, 64}
	for _, sh := range shapes {
		for _, tj := range sizes {
			for _, tk := range sizes {
				g := blast3DGrid(sh.nx, sh.ny, sh.nz)
				cfg := DefaultConfig()
				cfg.TileJ, cfg.TileK = tj, tk
				s, err := New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				owners := make(map[[2]int]int)
				for _, tl := range s.tiles {
					if tl.J1 <= tl.J0 || tl.K1 <= tl.K0 {
						t.Fatalf("%s tj=%d tk=%d: empty tile %+v", sh.name, tj, tk, tl)
					}
					for k := tl.K0; k < tl.K1; k++ {
						for j := tl.J0; j < tl.J1; j++ {
							owners[[2]int{j, k}]++
						}
					}
				}
				for k := g.KBeg(); k < g.KEnd(); k++ {
					for j := g.JBeg(); j < g.JEnd(); j++ {
						if n := owners[[2]int{j, k}]; n != 1 {
							t.Fatalf("%s tj=%d tk=%d: pencil (%d,%d) owned by %d tiles",
								sh.name, tj, tk, j, k, n)
						}
					}
				}
				ny, nz := g.JEnd()-g.JBeg(), g.KEnd()-g.KBeg()
				if want := len(owners); want != ny*nz {
					t.Fatalf("%s tj=%d tk=%d: %d owned pencils, want %d",
						sh.name, tj, tk, want, ny*nz)
				}
				if got, want := s.TileZones(0, len(s.tiles)), sh.nx*sh.ny*sh.nz; got != want {
					t.Fatalf("%s tj=%d tk=%d: TileZones = %d, want %d", sh.name, tj, tk, got, want)
				}
			}
		}
	}
}

// The tile engine must be bitwise invariant under worker count and tile
// size (dividing or not). The in-process baseline is the one-tile run —
// a tile covering the whole (j, k) plane is the full-row X→Y→Z traversal
// — and, on the recording architecture, the committed fingerprint of the
// strip traversal the tile engine replaced.
//
// The two subtests date from the generic/hand-fused kernel pair, whose
// strip goldens were recorded separately; Config.Fused now selects
// nothing, and both still have to land on their golden.
func TestTiledBitwiseInvariance(t *testing.T) {
	for _, fused := range []bool{false, true} {
		name := "generic"
		if fused {
			name = "fused"
		}
		t.Run(name, func(t *testing.T) {
			baseline := runTiled(t, func(c *Config) {
				c.TileJ, c.TileK = 64, 64
				c.Fused = fused
			})
			if g, ok := loadGolden(t, stripGoldenFile, "blast3d-"+name); ok {
				if fp := fieldFingerprint(baseline); fp != g.FNV64 {
					t.Fatalf("one-tile run fingerprint %s, strip golden %s", fp, g.FNV64)
				}
			}
			cases := []struct {
				label   string
				workers int // 0 = no pool
				tj, tk  int
			}{
				{"default-serial", 0, 0, 0},
				{"tiny-tiles-par8", 8, 1, 1},
				{"odd-tiles-par2", 2, 3, 5},
				{"odd-tiles-par1", 1, 5, 3},
				{"default-par2", 2, 0, 0},
			}
			for _, tc := range cases {
				got := runTiled(t, func(c *Config) {
					c.Fused = fused
					c.TileJ, c.TileK = tc.tj, tc.tk
					if tc.workers > 0 {
						c.Pool = par.NewPool(tc.workers)
					}
				})
				requireBitwiseEqual(t, tc.label, baseline, got)
			}
		})
	}
}

// A custom TileExec is handed the complete tile schedule and must be able
// to chunk it arbitrarily: every tile index in [0, nTiles) is run exactly
// once and the result stays bitwise identical.
func TestTileExecCoverage(t *testing.T) {
	baseline := runTiled(t, nil)
	var runs [][2]int
	nTilesSeen := -1
	got := runTiled(t, func(c *Config) {
		c.TileExec = func(nTiles int, run func(lo, hi int)) {
			nTilesSeen = nTiles
			for lo := 0; lo < nTiles; lo += 3 {
				hi := lo + 3
				if hi > nTiles {
					hi = nTiles
				}
				runs = append(runs, [2]int{lo, hi})
				run(lo, hi)
			}
		}
	})
	if nTilesSeen <= 0 {
		t.Fatalf("TileExec never invoked (nTiles = %d)", nTilesSeen)
	}
	seen := make([]int, nTilesSeen)
	for _, r := range runs {
		for i := r[0]; i < r[1]; i++ {
			seen[i]++
		}
	}
	// The exec ran many stages; every stage must cover each tile the same
	// number of times (once per ComputeRHS call).
	for i, n := range seen {
		if n == 0 || n != seen[0] {
			t.Fatalf("tile %d run %d times, tile 0 run %d times", i, n, seen[0])
		}
	}
	requireBitwiseEqual(t, "tile-exec", baseline, got)
}

// Fail-safe repair recomputes fluxes through the same tile kernels: an
// injected fault must be detected and repaired to the state (and the
// troubled/repaired counts) the strip traversal's repair produced, for
// the default tiles and the one-tile run alike.
func TestFailSafeTiledMatchesLegacy(t *testing.T) {
	run := func(tj, tk int) ([]float64, int64, int64) {
		g := blast3DGrid(12, 10, 8)
		cfg := DefaultConfig()
		cfg.FailSafe = true
		cfg.TileJ, cfg.TileK = tj, tk
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InitFromPrim(blast3DInit); err != nil {
			t.Fatal(err)
		}
		s.RecoverPrimitives()
		step := 0
		idx := g.Idx(g.TotalX/2, g.TotalY/2, g.TotalZ/2)
		s.Cfg.FaultHook = func(stage int, u *state.Fields) {
			if stage == 1 && step == 1 {
				u.Comp[state.ITau][idx] = -1
			}
		}
		for ; step < 3; step++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatalf("step %d not repaired: %v", step, err)
			}
		}
		out := make([]float64, 0, state.NComp*g.NCells())
		for c := 0; c < state.NComp; c++ {
			out = append(out, g.U.Comp[c]...)
		}
		return out, s.St.Troubled.Load(), s.St.Repaired.Load()
	}
	one, otr, orep := run(64, 64)
	tiled, ttr, trep := run(0, 0)
	if otr == 0 || orep != otr {
		t.Fatalf("one-tile repair stats troubled=%d repaired=%d", otr, orep)
	}
	if ttr != otr || trep != orep {
		t.Fatalf("tiled repair stats troubled=%d repaired=%d, one-tile %d/%d",
			ttr, trep, otr, orep)
	}
	requireBitwiseEqual(t, "failsafe", one, tiled)
	if g, ok := loadGolden(t, stripGoldenFile, "failsafe"); ok {
		if fp := fieldFingerprint(tiled); fp != g.FNV64 || ttr != g.Troubled || trep != g.Repaired {
			t.Fatalf("tiled repair %s troubled=%d repaired=%d, strip golden %s %d/%d",
				fp, ttr, trep, g.FNV64, g.Troubled, g.Repaired)
		}
	}
}

// Negative tile extents are configuration errors.
func TestTileConfigValidation(t *testing.T) {
	g := blast3DGrid(8, 8, 1)
	for _, tc := range []struct{ tj, tk int }{{-1, 0}, {0, -4}} {
		cfg := DefaultConfig()
		cfg.TileJ, cfg.TileK = tc.tj, tc.tk
		if _, err := New(g, cfg); err == nil {
			t.Errorf("TileJ=%d TileK=%d accepted", tc.tj, tc.tk)
		}
	}
}

// mark overwrites one edge of every cell whose value is at: its right
// edge (the left state of its upper face) when hi, else its left edge.
type mark struct {
	at float64
	hi bool
	v  float64
}

// markedRecon reconstructs with Scheme and then overwrites the edges of
// marked cells, so the admissibility fallback fires at the same faces
// whichever way the cells are laid out: on the oracle's rows and columns
// through Reconstruct and on the face pipeline's blocks through Edges.
type markedRecon struct {
	recon.Scheme
	marks []mark
}

func (m markedRecon) Reconstruct(u, uL, uR []float64) {
	m.Scheme.Reconstruct(u, uL, uR)
	g, n := m.Ghost(), len(u)
	for i := g - 1; i <= n-g; i++ {
		for _, mk := range m.marks {
			switch {
			case u[i] != mk.at:
			case mk.hi && i+1 <= n-g:
				uL[i+1] = mk.v
			case !mk.hi && i >= g:
				uR[i] = mk.v
			}
		}
	}
}

func (m markedRecon) Edges(u []float64, base, stride, lines int, lo, hi []float64) {
	m.Scheme.Edges(u, base, stride, lines, lo, hi)
	n := len(lo) / lines
	for q := 0; q < lines; q++ {
		for i := 0; i < n; i++ {
			for _, mk := range m.marks {
				switch {
				case u[base+q*stride+i] != mk.at:
				case mk.hi:
					hi[q*n+i] = mk.v
				default:
					lo[q*n+i] = mk.v
				}
			}
		}
	}
}

// gatherRow and fillFlux are the whole-row path the x rows and the
// fail-safe ran before every flux went through the face pipeline, kept
// as the column oracle. gatherRow views one strip of the primitive field
// as per-component contiguous rows: x strips alias W directly (stride 1,
// read-only), y/z strips are copied into buf.
func gatherRow(w *state.Fields, base, stride, n int, buf *[state.NComp][]float64) (u [state.NComp][]float64) {
	for c := 0; c < state.NComp; c++ {
		src := w.Comp[c]
		if stride == 1 {
			u[c] = src[base : base+n]
			continue
		}
		dst := buf[c][:n]
		for j := range dst {
			dst[j] = src[base+j*stride]
		}
		u[c] = dst
	}
	return u
}

// fillFlux reconstructs the gathered row (or tile segment) u of n cells
// and writes the Riemann fluxes of faces [cBeg, cEnd] into sc.fx (cell i
// owns faces i and i+1). Past the reconstruction it runs three passes
// over the row: admissibility, one evaluation per side into SoA face
// slabs, and one Riemann combine.
func (m *method) fillFlux(d state.Direction, u [state.NComp][]float64, n, cBeg, cEnd int,
	sc *rowScratch) {

	for c := 0; c < state.NComp; c++ {
		m.recon.Reconstruct(u[c], sc.fl[c][:n+1], sc.fr[c][:n+1])
	}
	lo, hi := cBeg, cEnd+1
	admit(&sc.fl, lo, hi, &u, lo-1)
	admit(&sc.fr, lo, hi, &u, lo)
	riemann.EvalRow(&sc.l, &sc.fl, m.eos, d, lo, hi)
	riemann.EvalRow(&sc.r, &sc.fr, m.eos, d, lo, hi)
	m.kind.FluxRow(&sc.l, &sc.r, &sc.fx, d, lo, hi)
}

// rowRHS is the RHS through the whole-row path: every x row, then every
// y column, then every z column gathered whole (gatherRow), fluxed by
// fillFlux and accumulated.
func (s *Solver) rowRHS(rhs *state.Fields) {
	g := s.G
	n := max(g.TotalX, g.TotalY, g.TotalZ)
	sc := newRowScratch(n+1, n+1)
	var buf [state.NComp][]float64
	for c := range buf {
		buf[c] = make([]float64, n)
	}
	line := func(d state.Direction, base, stride, n, cBeg, cEnd int, dx float64) {
		u := gatherRow(g.W, base, stride, n, &buf)
		s.m.fillFlux(d, u, n, cBeg, cEnd, sc)
		invDx := 1 / dx
		for c := range sc.fx {
			for i := cBeg; i < cEnd; i++ {
				o := &rhs.Comp[c][base+i*stride]
				if d == state.X {
					*o = 0 - (sc.fx[c][i+1]-sc.fx[c][i])*invDx
				} else {
					*o -= (sc.fx[c][i+1] - sc.fx[c][i]) * invDx
				}
			}
		}
	}
	for k := g.KBeg(); k < g.KEnd(); k++ {
		for j := g.JBeg(); j < g.JEnd(); j++ {
			line(state.X, g.Idx(0, j, k), 1, g.TotalX, g.IBeg(), g.IEnd(), g.Dx)
		}
	}
	for i := g.IBeg(); i < g.IEnd(); i++ {
		for k := g.KBeg(); k < g.KEnd(); k++ {
			line(state.Y, g.Idx(i, 0, k), g.TotalX, g.TotalY, g.JBeg(), g.JEnd(), g.Dy)
		}
		for j := g.JBeg(); j < g.JEnd(); j++ {
			line(state.Z, g.Idx(i, j, 0), g.TotalX*g.TotalY, g.TotalZ, g.KBeg(), g.KEnd(), g.Dz)
		}
	}
}

// The tile engine's x rows and face planes against whole x rows and y and
// z columns through fillFlux, bitwise, on a grid wide enough for two x
// chunks per plane (Nx = 70 > planeLanes) with tiles that divide it,
// tiles that do not, and one tile larger than the grid. About one cell in
// ten carries a mark whose edge is inadmissible — NaN or −0 ρ, p < 0,
// v² ≥ 1, infinite v — so the admissibility fallback fires on every row
// and face line, both sides, in both chunks; a fallback that read the wrong cell would change the
// bits, and one that missed a face would leave a NaN or infinite RHS.
func TestPlaneSweepsMatchRows(t *testing.T) {
	const nx, ny, nz = 70, 10, 8
	marks := []mark{
		{at: 0.4375, hi: false, v: math.NaN()},          // ρ
		{at: 0.5625, hi: true, v: math.Copysign(0, -1)}, // ρ
		{at: 0.15625, hi: true, v: 1},                   // vx
		{at: -0.09375, hi: false, v: math.Inf(-1)},      // vz
		{at: 0.8125, hi: true, v: -1},                   // p
	}
	for _, rc := range allRecon() {
		for _, rs := range allRiemann() {
			for _, tiles := range [][2]int{{0, 0}, {3, 5}, {1 << 20, 1 << 20}} {
				g := grid.New(grid.Geometry{Nx: nx, Ny: ny, Nz: nz, Ng: 3,
					X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1})
				cfg := DefaultConfig()
				cfg.Recon, cfg.Riemann = markedRecon{Scheme: rc, marks: marks}, rs
				cfg.TileJ, cfg.TileK = tiles[0], tiles[1]
				s, err := New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				for idx := 0; idx < g.NCells(); idx++ {
					v := 0.3 * rng.Float64()
					th, ph := math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
					p := state.Prim{
						Rho: 0.5 + rng.Float64(), P: 0.1 + rng.Float64(),
						Vx: v * math.Sin(th) * math.Cos(ph), Vy: v * math.Sin(th) * math.Sin(ph), Vz: v * math.Cos(th),
					}
					if idx%8 == 3 {
						p.Rho, p.P = 1e-3, 1e3
					}
					switch r := rng.Intn(20); {
					case r < 2:
						p.Rho = marks[r].at
					case r == 2:
						p.Vx = marks[2].at
					case r == 3:
						p.Vz = marks[3].at
					case r == 4:
						p.P = marks[4].at
					}
					g.W.SetPrim(idx, p)
				}
				planes, rows := state.NewFields(g.NCells()), state.NewFields(g.NCells())
				s.ComputeRHS(planes)
				s.rowRHS(rows)
				name := fmt.Sprintf("%s/%s/tiles %dx%d", rc.Name(), rs.Name(), tiles[0], tiles[1])
				for c := 0; c < state.NComp; c++ {
					for k := g.KBeg(); k < g.KEnd(); k++ {
						for j := g.JBeg(); j < g.JEnd(); j++ {
							for i := g.IBeg(); i < g.IEnd(); i++ {
								got, want := planes.Comp[c][g.Idx(i, j, k)], rows.Comp[c][g.Idx(i, j, k)]
								if math.IsNaN(got) || math.IsInf(got, 0) {
									t.Fatalf("%s: rhs[%d] at (%d,%d,%d) = %v", name, c, i, j, k, got)
								}
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s: rhs[%d] at (%d,%d,%d) = %v, row path %v",
										name, c, i, j, k, got, want)
								}
							}
						}
					}
				}
				// A tile extent past the grid sizes the plane slots by the grid.
				if len(s.newScratch().fl[0]) > max(nx+3, (max(ny, nz)+3)*planeLanes) {
					t.Fatalf("%s: plane slots %d for a %dx%dx%d grid", name, len(s.newScratch().fl[0]), nx, ny, nz)
				}
			}
		}
	}
}
