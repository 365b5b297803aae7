package neighbor

import (
	"math"

	"repro/internal/atoms"
	"repro/internal/par"
)

// Builder constructs pair lists with reusable scratch buffers and a bounded
// worker pool, the single-node analogue of the paper's allocation-stable
// LAMMPS plugin: after the first build on a given system size, repeated
// builds perform no heap allocations, and the cell scan is parallelized over
// contiguous atom ranges so the merged pair order is identical for any
// worker count.
//
// A Builder is owned by a single evaluation pipeline (an MD loop, an
// EvalScratch); it must not be shared between goroutines. The zero value is
// ready to use with Workers defaulting to runtime.GOMAXPROCS(0).
type Builder struct {
	// Workers bounds the number of concurrent chunk builders. Values <= 0
	// select runtime.GOMAXPROCS(0). With Workers > 1 the Builder keeps a
	// persistent pool of worker goroutines fed over channels, so
	// steady-state builds stay allocation-free at any worker count; call
	// Close when discarding a parallel Builder to release the pool.
	Workers int

	// Skin is the Verlet-list skin: pairs are admitted out to their ordered
	// cutoff plus Skin, while Pairs.Cut still records the true cutoff. A
	// skin list built at one configuration stays a superset of every exact
	// cutoff list until an atom has moved Skin/2, so MD loops can reuse it
	// across steps; pairs in the skin shell (Dist >= Cut) sit exactly on or
	// beyond the cutoff envelope and contribute exactly zero energy and
	// force. Zero disables the skin.
	Skin float64

	// CenterLimit restricts which atoms act as pair centers: only atoms
	// with index < CenterLimit are scanned as centers (all atoms remain
	// visible as neighbors). Domain-decomposition ranks lay out their local
	// systems owned-atoms-first and set CenterLimit to the owned count, so
	// ghost-centered pairs are never built. Values <= 0 mean all atoms.
	// The same owned-prefix convention classifies neighbors as ghosts in
	// PartitionInterior, the interior/frontier split of the overlap
	// pipeline.
	CenterLimit int

	// Reusable per-build scratch.
	tIdx      []int        // species index per atom
	pos       [][3]float64 // positions, wrapped into the cell when periodic
	cellIdx   []int32      // flat cell index per atom
	cellPtr   []int32      // counting-sort cell offsets, len ncells+1
	cellAtoms []int32      // atom indices grouped by cell, ascending per cell
	shards    []shard      // per-chunk pair outputs

	// PartitionInterior scratch (stable center-block gather).
	partI, partJ      []int
	partVec           [][3]float64
	partDist, partCut []float64

	// Per-build state shared with worker goroutines (set before jobs are
	// dispatched, read-only while they run; the pool's channel handshakes
	// order the accesses).
	sys    *atoms.System
	cuts   *CutoffTable
	rcMax  float64
	binned bool
	nb     [3]int

	// Persistent worker pool (lazily started on the first parallel build)
	// and the hoisted job closure handed to it (created once so dispatch
	// stays allocation-free).
	pool    par.Pool
	chunkFn func(int)
}

// shard is one chunk's private pair output in structure-of-arrays form.
type shard struct {
	lo, hi int // atom range [lo,hi)
	i, j   []int
	vec    [][3]float64
	dist   []float64
	cut    []float64
}

func (s *shard) reset(lo, hi int) {
	s.lo, s.hi = lo, hi
	s.i = s.i[:0]
	s.j = s.j[:0]
	s.vec = s.vec[:0]
	s.dist = s.dist[:0]
	s.cut = s.cut[:0]
}

func (s *shard) add(i, j int, d [3]float64, r, rc float64) {
	s.i = append(s.i, i)
	s.j = append(s.j, j)
	s.vec = append(s.vec, d)
	s.dist = append(s.dist, r)
	s.cut = append(s.cut, rc)
}

// effectiveWorkers resolves the worker count for n atoms.
func (b *Builder) effectiveWorkers(n int) int {
	return par.Workers(b.Workers, n)
}

// Reset truncates the pair arrays, keeping capacity for reuse.
func (p *Pairs) Reset(nAtoms int) {
	p.I = p.I[:0]
	p.J = p.J[:0]
	p.Vec = p.Vec[:0]
	p.Dist = p.Dist[:0]
	p.Cut = p.Cut[:0]
	p.NumReal = 0
	p.NAtoms = nAtoms
}

// BuildInto constructs the ordered pair list for sys into p, reusing p's
// storage and the builder's scratch. The resulting pair order — ascending
// center atom, then ascending neighbor index — does not depend on the
// worker count or on the cell geometry, so per-center environment sums are
// reproducible.
func (b *Builder) BuildInto(p *Pairs, sys *atoms.System, cuts *CutoffTable) {
	n := sys.NumAtoms()
	p.Reset(n)
	b.sys = sys
	b.cuts = cuts
	b.rcMax = cuts.Max() + b.Skin

	// Resolve species indices once.
	if cap(b.tIdx) < n {
		b.tIdx = make([]int, n)
	}
	b.tIdx = b.tIdx[:n]
	for i, sp := range sys.Species {
		b.tIdx[i] = cuts.Index.Index(sp)
	}

	b.wrap()
	b.binned = useCellList(sys, b.rcMax)
	if b.binned {
		b.bin()
	}

	centers := n
	if b.CenterLimit > 0 && b.CenterLimit < n {
		centers = b.CenterLimit
	}
	nw := b.effectiveWorkers(centers)
	if cap(b.shards) < nw {
		grown := make([]shard, nw)
		copy(grown, b.shards)
		b.shards = grown
	}
	b.shards = b.shards[:nw]
	chunk := (centers + nw - 1) / nw
	for ci := 0; ci < nw; ci++ {
		lo := ci * chunk
		hi := lo + chunk
		if hi > centers {
			hi = centers
		}
		b.shards[ci].reset(lo, hi)
	}
	if nw == 1 {
		b.runChunk(0)
	} else {
		if b.chunkFn == nil {
			b.chunkFn = b.runChunk
		}
		b.pool.Run(nw, b.chunkFn)
	}

	// Deterministic merge in chunk order.
	total := 0
	for ci := range b.shards {
		total += len(b.shards[ci].i)
	}
	p.I = growInts(p.I, total)
	p.J = growInts(p.J, total)
	p.Vec = growVecs(p.Vec, total)
	p.Dist = growFloats(p.Dist, total)
	p.Cut = growFloats(p.Cut, total)
	off := 0
	for ci := range b.shards {
		s := &b.shards[ci]
		copy(p.I[off:], s.i)
		copy(p.J[off:], s.j)
		copy(p.Vec[off:], s.vec)
		copy(p.Dist[off:], s.dist)
		copy(p.Cut[off:], s.cut)
		off += len(s.i)
	}
	p.NumReal = total
	b.sys, b.cuts = nil, nil
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growVecs(s [][3]float64, n int) [][3]float64 {
	if cap(s) < n {
		return make([][3]float64, n)
	}
	return s[:n]
}

// wrap copies the positions into b.pos, wrapped into the cell when the
// system is periodic: both scan paths take displacements from these
// copies, with the same arithmetic as the domain runtime's wrapped
// positions, so a pair's vector is the same bits on every engine.
func (b *Builder) wrap() {
	sys := b.sys
	n := sys.NumAtoms()
	if cap(b.pos) < n {
		b.pos = make([][3]float64, n)
	}
	b.pos = b.pos[:n]
	copy(b.pos, sys.Pos)
	if sys.PBC {
		for i := range b.pos {
			for k := 0; k < 3; k++ {
				l := sys.Cell[k]
				b.pos[i][k] -= l * math.Floor(b.pos[i][k]/l)
			}
		}
	}
}

// bin computes the cell geometry and counting-sorts the wrapped atoms into
// flat cell arrays (no per-cell slices, no map: the scratch is reused
// verbatim across MD steps).
func (b *Builder) bin() {
	sys, rc := b.sys, b.rcMax
	n := sys.NumAtoms()
	var lo, hi [3]float64
	if sys.PBC {
		hi = sys.Cell
	} else {
		lo = sys.Pos[0]
		hi = sys.Pos[0]
		for _, p := range sys.Pos {
			for k := 0; k < 3; k++ {
				lo[k] = math.Min(lo[k], p[k])
				hi[k] = math.Max(hi[k], p[k])
			}
		}
		for k := 0; k < 3; k++ {
			hi[k] += 1e-9
		}
	}
	var cw [3]float64
	for k := 0; k < 3; k++ {
		ext := hi[k] - lo[k]
		b.nb[k] = int(ext / rc)
		if b.nb[k] < 1 {
			b.nb[k] = 1
		}
		cw[k] = ext / float64(b.nb[k])
	}
	if cap(b.cellIdx) < n {
		b.cellIdx = make([]int32, n)
	}
	b.cellIdx = b.cellIdx[:n]
	ncells := b.nb[0] * b.nb[1] * b.nb[2]
	if cap(b.cellPtr) < ncells+1 {
		b.cellPtr = make([]int32, ncells+1)
	}
	b.cellPtr = b.cellPtr[:ncells+1]
	for c := range b.cellPtr {
		b.cellPtr[c] = 0
	}
	for i := range b.pos {
		var c [3]int
		for k := 0; k < 3; k++ {
			c[k] = int((b.pos[i][k] - lo[k]) / cw[k])
			if c[k] >= b.nb[k] {
				c[k] = b.nb[k] - 1
			}
			if c[k] < 0 {
				c[k] = 0
			}
		}
		idx := int32((c[0]*b.nb[1]+c[1])*b.nb[2] + c[2])
		b.cellIdx[i] = idx
		b.cellPtr[idx+1]++
	}
	for c := 1; c <= ncells; c++ {
		b.cellPtr[c] += b.cellPtr[c-1]
	}
	if cap(b.cellAtoms) < n {
		b.cellAtoms = make([]int32, n)
	}
	b.cellAtoms = b.cellAtoms[:n]
	// Fill ascending so atoms within each cell keep ascending index order
	// (the same order the serial map-based implementation produced).
	fill := b.cellPtr[:ncells] // running write offsets; restored below
	for i := range b.cellIdx {
		c := b.cellIdx[i]
		b.cellAtoms[fill[c]] = int32(i)
		fill[c]++
	}
	// fill aliased cellPtr[0:ncells] and advanced each entry by its count:
	// cellPtr[c] now holds the *end* of cell c, i.e. the start of cell c+1.
	// Shift back down to restore start offsets.
	for c := ncells; c > 0; c-- {
		b.cellPtr[c] = b.cellPtr[c-1]
	}
	b.cellPtr[0] = 0
}

// Close releases the worker pool. The Builder remains usable afterwards (a
// later parallel build restarts the pool). Builders that never ran a
// parallel build have nothing to release.
func (b *Builder) Close() { b.pool.Close() }

// runChunk builds the pair list for the chunk's atom range into its shard.
func (b *Builder) runChunk(ci int) {
	s := &b.shards[ci]
	if b.binned {
		b.scanCells(s)
	} else {
		b.scanAll(s)
	}
}

// scanAll is the O(N^2) minimum-image path for small or aperiodic systems.
func (b *Builder) scanAll(s *shard) {
	n := len(b.pos)
	for i := s.lo; i < s.hi; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			b.visit(s, i, j)
		}
	}
}

// scanCells scans the 27 neighboring cells of each atom in the chunk.
func (b *Builder) scanCells(s *shard) {
	sys := b.sys
	nbx, nby, nbz := b.nb[0], b.nb[1], b.nb[2]
	for i := s.lo; i < s.hi; i++ {
		c := int(b.cellIdx[i])
		cz := c % nbz
		cy := (c / nbz) % nby
		cx := c / (nby * nbz)
		start := len(s.j)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					jx, jy, jz := cx+dx, cy+dy, cz+dz
					if sys.PBC {
						jx = ((jx % nbx) + nbx) % nbx
						jy = ((jy % nby) + nby) % nby
						jz = ((jz % nbz) + nbz) % nbz
					} else if jx < 0 || jx >= nbx || jy < 0 || jy >= nby || jz < 0 || jz >= nbz {
						continue
					}
					cj := (jx*nby+jy)*nbz + jz
					for _, j32 := range b.cellAtoms[b.cellPtr[cj]:b.cellPtr[cj+1]] {
						if j := int(j32); j != i {
							b.visit(s, i, j)
						}
					}
				}
			}
		}
		s.sortCenter(start)
	}
}

// sortCenter orders the pairs appended since start — one center's — by
// ascending neighbor index (insertion sort: the 27-cell scan leaves short
// ascending runs). The environment sums add a center's neighbors in list
// order, so this one order is what makes a center's rows the same bits in
// every list that holds it, serial or rank-local.
func (s *shard) sortCenter(start int) {
	for a := start + 1; a < len(s.j); a++ {
		j, d, r, rc := s.j[a], s.vec[a], s.dist[a], s.cut[a]
		b := a
		for ; b > start && s.j[b-1] > j; b-- {
			s.j[b], s.vec[b], s.dist[b], s.cut[b] = s.j[b-1], s.vec[b-1], s.dist[b-1], s.cut[b-1]
		}
		s.j[b], s.vec[b], s.dist[b], s.cut[b] = j, d, r, rc
	}
}

// visit takes the minimum-image vector from atom i to atom j (from the
// wrapped copies, the arithmetic the domain runtime uses too), applies the
// ordered per-species-pair cutoff test (inflated by the Verlet skin) and
// records the pair in the chunk's shard. The recorded cutoff is the true
// ordered cutoff: skin pairs carry Dist >= Cut and a zero cutoff envelope.
func (b *Builder) visit(s *shard, i, j int) {
	d := [3]float64{
		b.pos[j][0] - b.pos[i][0],
		b.pos[j][1] - b.pos[i][1],
		b.pos[j][2] - b.pos[i][2],
	}
	if sys := b.sys; sys.PBC {
		for k := 0; k < 3; k++ {
			l := sys.Cell[k]
			d[k] -= l * math.Round(d[k]/l)
		}
	}
	r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
	if r2 > b.rcMax*b.rcMax || r2 == 0 {
		return
	}
	r := math.Sqrt(r2)
	if rc := b.cuts.Rc[b.tIdx[i]][b.tIdx[j]]; r < rc+b.Skin {
		s.add(i, j, d, r, rc)
	}
}
