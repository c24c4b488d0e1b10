package cluster

import (
	"fmt"
	"math"
	"sync"
	"time"

	"rhsc/internal/core"
	"rhsc/internal/grid"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// Mode selects how communication is modelled against computation.
type Mode int

// Communication modes.
const (
	// Sync is the bulk-synchronous baseline: every stage waits for its
	// halos before computing anything.
	Sync Mode = iota
	// Async overlaps halo transit with the interior sweep; only the
	// boundary strips wait for the halos (futurized exchange).
	Async
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Sync {
		return "sync"
	}
	return "async"
}

// Overlap splits the compute charge of one stage — zones zone-updates,
// boundaryZones of them adjacent to a halo — around the halo wait:
// before is charged once the sends are posted, after once the receives
// have landed. Sync computes nothing until the halos are in; Async
// sweeps the interior while they are in flight and only the boundary
// zones wait.
func (m Mode) Overlap(zones, boundaryZones int, dims, rate float64) (before, after float64) {
	full := float64(zones) * dims / rate
	if m != Async {
		return 0, full
	}
	boundary := float64(boundaryZones) * dims / rate
	if boundary > full {
		boundary = full
	}
	return full - boundary, boundary
}

// Options configures a distributed run.
type Options struct {
	// Ranks is the total rank count. The process grid is Px × Py; when
	// both are zero the decomposition is 1-D along x (Px = Ranks).
	Ranks int
	// Px, Py arrange the ranks in a 2-D process grid (Px·Py must equal
	// Ranks). Py > 1 requires a 2-D problem.
	Px, Py int
	Mode   Mode
	Net    NetModel
	// RankRates, when non-empty, gives every rank its own throughput in
	// place of ZoneRate (len must equal Ranks): a heterogeneous cluster
	// of plain and accelerated nodes. Requires a 1-D decomposition
	// (Py == 1).
	RankRates []float64
	// WeightedDecomp splits the domain proportionally to RankRates
	// instead of evenly, so faster nodes get more zones. Only meaningful
	// with RankRates.
	WeightedDecomp bool
	// Steps, when > 0, runs exactly that many fixed steps (performance
	// experiments); otherwise the run integrates to the problem's TEnd.
	Steps int
	// TEnd overrides the problem's end time when > 0 (and Steps == 0).
	TEnd float64
}

// Result summarises a distributed run.
type Result struct {
	Ranks       int
	Mode        Mode
	Steps       int
	RealTime    time.Duration
	VirtualTime float64 // max over ranks of the per-rank virtual clock
	// Rho is the gathered global density profile along the first interior
	// row (validation); only meaningful lengths for 1-D problems.
	Rho []float64
	// TotalMass is the summed conserved mass across ranks.
	TotalMass float64
}

// halo tags: direction-encoded so messages of different faces cannot mix
// even when one pair of ranks shares several faces (small periodic
// grids).
const (
	tagHaloToLeft  = 100 // data travelling to the left (−x) neighbour
	tagHaloToRight = 101
	tagHaloToDown  = 102 // data travelling to the lower (−y) neighbour
	tagHaloToUp    = 103
)

// ZoneRate is the modelled per-rank compute throughput of a homogeneous
// cluster, in zone-stage-updates per virtual second: a 4-core 2015 node.
const ZoneRate = 16e6

// rankState carries one rank's solver plus its virtual clock.
type rankState struct {
	comm *Comm
	g    *grid.Grid
	opts Options
	// Neighbour ranks; −1 when the face is a physical boundary.
	left, right, down, up int

	clock     float64
	firstSync bool    // the initial exchange (post-init recovery) is not charged
	rate      float64 // this rank's compute throughput (heterogeneous clusters)

	// Pooled halo send buffers, two per face alternated by exchange
	// parity. Send hands the slice to the peer without copying, so a
	// buffer may only be repacked once the peer has provably finished
	// reading it: the peer posts its phase-s+1 sends only after its
	// phase-s receives (which read our phase-s buffer), and we repack
	// the same-parity buffer only after receiving that s+1 message —
	// single-buffer reuse at s+1 would race. Faces: 0=left 1=right
	// 2=down 3=up; buffers are grown on first use, then stable.
	sendBuf [4][2][]float64
	phase   int
}

// packXHalo packs ng columns starting at column i0 (full j,k extent)
// into buf, grown only when too small; every element is overwritten.
func packXHalo(g *grid.Grid, w *state.Fields, i0 int, buf []float64) []float64 {
	ng := g.Ng
	need := ng * g.TotalY * g.TotalZ * state.NComp
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	out := buf[:need]
	p := 0
	for c := 0; c < state.NComp; c++ {
		for k := 0; k < g.TotalZ; k++ {
			for j := 0; j < g.TotalY; j++ {
				base := (k*g.TotalY + j) * g.TotalX
				for i := i0; i < i0+ng; i++ {
					out[p] = w.Comp[c][base+i]
					p++
				}
			}
		}
	}
	return out
}

// unpackXHalo writes a packed x-halo into columns starting at i0.
func unpackXHalo(g *grid.Grid, w *state.Fields, i0 int, data []float64) {
	ng := g.Ng
	p := 0
	for c := 0; c < state.NComp; c++ {
		for k := 0; k < g.TotalZ; k++ {
			for j := 0; j < g.TotalY; j++ {
				base := (k*g.TotalY + j) * g.TotalX
				for i := i0; i < i0+ng; i++ {
					w.Comp[c][base+i] = data[p]
					p++
				}
			}
		}
	}
}

// packYHalo packs ng rows starting at row j0 (full i,k extent) into
// buf, grown only when too small; every element is overwritten.
func packYHalo(g *grid.Grid, w *state.Fields, j0 int, buf []float64) []float64 {
	ng := g.Ng
	need := ng * g.TotalX * g.TotalZ * state.NComp
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	out := buf[:need]
	p := 0
	for c := 0; c < state.NComp; c++ {
		for k := 0; k < g.TotalZ; k++ {
			for j := j0; j < j0+ng; j++ {
				base := (k*g.TotalY + j) * g.TotalX
				copy(out[p:p+g.TotalX], w.Comp[c][base:base+g.TotalX])
				p += g.TotalX
			}
		}
	}
	return out
}

// unpackYHalo writes a packed y-halo into rows starting at j0.
func unpackYHalo(g *grid.Grid, w *state.Fields, j0 int, data []float64) {
	ng := g.Ng
	p := 0
	for c := 0; c < state.NComp; c++ {
		for k := 0; k < g.TotalZ; k++ {
			for j := j0; j < j0+ng; j++ {
				base := (k*g.TotalY + j) * g.TotalX
				copy(w.Comp[c][base:base+g.TotalX], data[p:p+g.TotalX])
				p += g.TotalX
			}
		}
	}
}

// exchange is the HaloExchange hook: real data exchange plus virtual-time
// accounting for the stage.
//
// Corner note: the packed faces span the full transverse extent including
// ghost rows/columns, whose corner values may be one stage stale on
// External×External corners. The sweeps never read corner ghosts (each
// 1-D strip covers interior rows only), so this is harmless and saves a
// second communication round.
func (r *rankState) exchange(w *state.Fields) {
	g := r.g
	ng := g.Ng

	// Post all sends with the current virtual timestamp, packing into
	// this parity's pooled buffers (see rankState.sendBuf).
	par := r.phase & 1
	r.phase++
	if r.left >= 0 {
		r.sendBuf[0][par] = packXHalo(g, w, g.IBeg(), r.sendBuf[0][par])
		r.comm.Send(r.left, tagHaloToLeft, r.sendBuf[0][par], r.clock)
	}
	if r.right >= 0 {
		r.sendBuf[1][par] = packXHalo(g, w, g.IEnd()-ng, r.sendBuf[1][par])
		r.comm.Send(r.right, tagHaloToRight, r.sendBuf[1][par], r.clock)
	}
	if r.down >= 0 {
		r.sendBuf[2][par] = packYHalo(g, w, g.JBeg(), r.sendBuf[2][par])
		r.comm.Send(r.down, tagHaloToDown, r.sendBuf[2][par], r.clock)
	}
	if r.up >= 0 {
		r.sendBuf[3][par] = packYHalo(g, w, g.JEnd()-ng, r.sendBuf[3][par])
		r.comm.Send(r.up, tagHaloToUp, r.sendBuf[3][par], r.clock)
	}

	// Virtual compute costs of this stage: boundary work is the ghost-
	// adjacent band of each external face.
	bzones := 0
	if r.left >= 0 {
		bzones += ng * g.Ny * g.Nz
	}
	if r.right >= 0 {
		bzones += ng * g.Ny * g.Nz
	}
	if r.down >= 0 {
		bzones += ng * g.Nx * g.TotalZ
	}
	if r.up >= 0 {
		bzones += ng * g.Nx * g.TotalZ
	}
	before, after := r.opts.Mode.Overlap(g.Nx*g.Ny*g.Nz, bzones, float64(g.Dim()), r.rate)

	charge := !r.firstSync
	r.firstSync = false

	if charge {
		r.clock += before
	}

	recvOne := func(src, tag int) {
		data, stamp := mustRecv(r.comm.Recv(src, tag))
		switch tag {
		case tagHaloToRight: // arrived from the left neighbour
			unpackXHalo(g, w, 0, data)
		case tagHaloToLeft:
			unpackXHalo(g, w, g.IEnd(), data)
		case tagHaloToUp: // arrived from the lower neighbour
			unpackYHalo(g, w, 0, data)
		case tagHaloToDown:
			unpackYHalo(g, w, g.JEnd(), data)
		}
		if charge {
			r.clock = r.opts.Net.Arrive(r.clock, stamp, len(data))
		}
	}
	if r.left >= 0 {
		recvOne(r.left, tagHaloToRight)
	}
	if r.right >= 0 {
		recvOne(r.right, tagHaloToLeft)
	}
	if r.down >= 0 {
		recvOne(r.down, tagHaloToUp)
	}
	if r.up >= 0 {
		recvOne(r.up, tagHaloToDown)
	}

	if charge {
		r.clock += after
	}
}

// Run executes the problem distributed over a process grid at global
// resolution n (cells along x; 2-D problems scale y by the domain
// aspect). It returns rank 0's gathered result.
func Run(p *testprob.Problem, n int, cfg core.Config, opts Options) (*Result, error) {
	if opts.Ranks < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 rank, got %d", opts.Ranks)
	}
	if cfg.FailSafe {
		// The repair needs the neighbours' troubled-cell masks in the
		// ghost band and a halo exchange of the repaired primitives, and
		// only the tree drivers' stage hooks provide them. damr.Run is the
		// distributed fail-safe driver.
		return nil, fmt.Errorf("cluster: FailSafe is not supported (the repair needs neighbour masks and a post-repair halo exchange; use damr.Run)")
	}
	if opts.Px == 0 && opts.Py == 0 {
		opts.Px, opts.Py = opts.Ranks, 1
	}
	if opts.Px < 1 || opts.Py < 1 || opts.Px*opts.Py != opts.Ranks {
		return nil, fmt.Errorf("cluster: process grid %dx%d does not match %d ranks",
			opts.Px, opts.Py, opts.Ranks)
	}
	if opts.Py > 1 && p.Dim < 2 {
		return nil, fmt.Errorf("cluster: Py=%d needs a 2-D problem", opts.Py)
	}
	if len(opts.RankRates) > 0 {
		if len(opts.RankRates) != opts.Ranks {
			return nil, fmt.Errorf("cluster: %d rank rates for %d ranks", len(opts.RankRates), opts.Ranks)
		}
		if opts.Py != 1 {
			return nil, fmt.Errorf("cluster: RankRates requires a 1-D decomposition")
		}
		for i, r := range opts.RankRates {
			if r <= 0 {
				return nil, fmt.Errorf("cluster: rank %d rate %v must be positive", i, r)
			}
		}
	}
	ng := cfg.Recon.Ghost()

	// Column ranges per rank along x: even by default, proportional to
	// RankRates under WeightedDecomp.
	starts := make([]int, opts.Px+1)
	if opts.WeightedDecomp && len(opts.RankRates) > 0 {
		total := 0.0
		for _, r := range opts.RankRates {
			total += r
		}
		acc := 0.0
		for i := 0; i < opts.Px; i++ {
			starts[i] = int(math.Round(acc / total * float64(n)))
			acc += opts.RankRates[i]
		}
		starts[opts.Px] = n
	} else {
		if n%opts.Px != 0 {
			return nil, fmt.Errorf("cluster: global Nx %d not divisible by Px=%d", n, opts.Px)
		}
		for i := 0; i <= opts.Px; i++ {
			starts[i] = i * (n / opts.Px)
		}
	}
	for i := 0; i < opts.Px; i++ {
		if starts[i+1]-starts[i] < ng {
			return nil, fmt.Errorf("cluster: rank %d gets %d cells, below ghost width %d",
				i, starts[i+1]-starts[i], ng)
		}
	}
	nyGlob := p.Geometry(n, ng).Ny
	if nyGlob%opts.Py != 0 {
		return nil, fmt.Errorf("cluster: global Ny %d not divisible by Py=%d", nyGlob, opts.Py)
	}
	nyLoc := nyGlob / opts.Py
	if opts.Py > 1 && nyLoc < ng {
		return nil, fmt.Errorf("cluster: %d cells/rank along y below ghost width %d", nyLoc, ng)
	}

	world := NewWorld(opts.Ranks)
	results := make([]*Result, opts.Ranks)
	errs := make([]error, opts.Ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < opts.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = runRank(world.Comm(rank), p, n, starts, nyGlob, nyLoc, cfg, opts)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: rank %d: %w", rank, err)
		}
	}
	return results[0], nil
}

func runRank(comm *Comm, p *testprob.Problem, nGlob int, starts []int, nyGlob, nyLoc int, cfg core.Config, opts Options) (*Result, error) {
	rank, size := comm.Rank(), comm.Size()
	rx := rank % opts.Px
	ry := rank / opts.Px
	dx := (p.X1 - p.X0) / float64(nGlob)
	xBeg, xEnd := starts[rx], starts[rx+1]
	nxLoc := xEnd - xBeg

	geom := p.Geometry(nGlob, cfg.Recon.Ghost())
	dy := 0.0
	if p.Dim >= 2 {
		dy = (p.Y1 - p.Y0) / float64(nyGlob)
	}
	geom.Nx = nxLoc
	geom.X0 = p.X0 + float64(xBeg)*dx
	geom.X1 = p.X0 + float64(xEnd)*dx
	geom.GlobalX0 = p.X0
	geom.GlobalDx = dx
	geom.IOffset = xBeg
	if p.Dim >= 2 {
		geom.Ny = nyLoc
		geom.Y0 = p.Y0 + float64(ry*nyLoc)*dy
		geom.Y1 = p.Y0 + float64((ry+1)*nyLoc)*dy
		geom.GlobalY0 = p.Y0
		geom.GlobalDy = dy
		geom.JOffset = ry * nyLoc
	}
	g := p.BlockGrid(geom, [3]int{rx, ry}, [3]int{opts.Px, opts.Py, 1})

	rs := &rankState{
		comm: comm, g: g, opts: opts,
		left: -1, right: -1, down: -1, up: -1,
		firstSync: true,
		rate:      ZoneRate,
	}
	if len(opts.RankRates) > 0 {
		rs.rate = opts.RankRates[rank]
	}
	// The neighbours behind the External faces BlockGrid marked.
	at := func(x, y int) int { return y*opts.Px + x }
	if g.BCs[0][0] == grid.External {
		rs.left = at((rx-1+opts.Px)%opts.Px, ry)
	}
	if g.BCs[0][1] == grid.External {
		rs.right = at((rx+1)%opts.Px, ry)
	}
	if g.BCs[1][0] == grid.External {
		rs.down = at(rx, (ry-1+opts.Py)%opts.Py)
	}
	if g.BCs[1][1] == grid.External {
		rs.up = at(rx, (ry+1)%opts.Py)
	}

	cfg.HaloExchange = rs.exchange
	s, err := core.New(g, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		return nil, err
	}
	s.RecoverPrimitives() // triggers the first (uncharged) halo exchange

	tEnd := p.TEnd
	if opts.TEnd > 0 {
		tEnd = opts.TEnd
	}

	start := time.Now()
	steps := 0
	for {
		if opts.Steps > 0 {
			if steps >= opts.Steps {
				break
			}
		} else if s.Time() >= tEnd-1e-14 {
			break
		}
		dt := comm.AllReduceMin(s.MaxDt())
		rs.clock += opts.Net.AllReduceCost(size)
		if opts.Steps == 0 && s.Time()+dt > tEnd {
			dt = tEnd - s.Time()
		}
		if err := s.Step(dt); err != nil {
			return nil, err
		}
		steps++
	}
	real := time.Since(start)

	// Gather diagnostics on rank 0.
	mass := comm.AllReduceSum(g.TotalMass())
	vmax := comm.AllReduceMax(rs.clock)

	// Global density profile along the first interior row: contributed by
	// the ry == 0 process row (ranks 0..Px−1, which lead the rank order).
	local := make([]float64, 0, nxLoc)
	if ry == 0 {
		j, k := g.JBeg(), g.KBeg()
		for i := 0; i < nxLoc; i++ {
			local = append(local, g.W.Comp[state.IRho][g.Idx(g.IBeg()+i, j, k)])
		}
	}
	parts := comm.Gather(local)
	if rank != 0 {
		return &Result{}, nil
	}
	rho := make([]float64, 0, nGlob)
	for _, part := range parts[:opts.Px] {
		rho = append(rho, part...)
	}
	return &Result{
		Ranks: size, Mode: opts.Mode, Steps: steps,
		RealTime: real, VirtualTime: vmax,
		Rho: rho, TotalMass: mass,
	}, nil
}
