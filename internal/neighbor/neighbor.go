// Package neighbor builds ordered neighbor-pair lists with cell-list
// binning, periodic boundary conditions, and the paper's
// per-ordered-species-pair cutoffs (Sec. V-B4). It also implements the 5%
// input padding with "fake" far-apart pairs that defeats allocator churn in
// the LAMMPS plugin (Sec. V-C, Fig. 5).
package neighbor

import (
	"fmt"
	"math"

	"repro/internal/atoms"
	"repro/internal/units"
)

// CutoffTable holds the cutoff radius for each *ordered* species pair
// (i-species, j-species). Ordered means Rc[H][C] may be smaller than
// Rc[C][H]: C-centered pairs can see H out to the larger radius while H-C
// pairs are restricted, which reduces pair count at negligible accuracy
// cost.
type CutoffTable struct {
	Index *atoms.SpeciesIndex
	Rc    [][]float64
}

// NewCutoffTable builds a table with a uniform default cutoff.
func NewCutoffTable(idx *atoms.SpeciesIndex, def float64) *CutoffTable {
	n := idx.Len()
	t := &CutoffTable{Index: idx, Rc: make([][]float64, n)}
	for i := range t.Rc {
		t.Rc[i] = make([]float64, n)
		for j := range t.Rc[i] {
			t.Rc[i][j] = def
		}
	}
	return t
}

// Set assigns the cutoff for the ordered pair (center si, neighbor sj).
func (t *CutoffTable) Set(si, sj units.Species, rc float64) {
	t.Rc[t.Index.Index(si)][t.Index.Index(sj)] = rc
}

// Get returns the cutoff for the ordered pair (center si, neighbor sj).
func (t *CutoffTable) Get(si, sj units.Species) float64 {
	return t.Rc[t.Index.Index(si)][t.Index.Index(sj)]
}

// Max returns the largest cutoff in the table (the binning radius).
func (t *CutoffTable) Max() float64 {
	m := 0.0
	for _, row := range t.Rc {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// PaperBioCutoffs returns the production cutoff table of Sec. VI-D: default
// 4.0 A with reduced hydrogen-centered pairs H-H 3.0, H-C 1.25, H-O 1.25 and
// O-H 3.0 (ordered).
func PaperBioCutoffs(idx *atoms.SpeciesIndex) *CutoffTable {
	t := NewCutoffTable(idx, 4.0)
	set := func(a, b units.Species, rc float64) {
		if idx.Contains(a) && idx.Contains(b) {
			t.Set(a, b, rc)
		}
	}
	set(units.H, units.H, 3.0)
	set(units.H, units.C, 1.25)
	set(units.H, units.O, 1.25)
	set(units.O, units.H, 3.0)
	return t
}

// Pairs is an ordered neighbor list in structure-of-arrays form. Pair z goes
// from center I[z] to neighbor J[z] with minimum-image displacement Vec[z]
// (r_J - r_I), distance Dist[z], and the ordered cutoff Cut[z] that admitted
// it. NumReal counts genuine pairs; entries beyond NumReal are padding.
type Pairs struct {
	I, J    []int
	Vec     [][3]float64
	Dist    []float64
	Cut     []float64
	NumReal int
	NAtoms  int
}

// Len returns the total pair count including padding.
func (p *Pairs) Len() int { return len(p.I) }

// Build constructs the ordered pair list for sys under the cutoff table.
// Both directions of each geometric pair are considered independently
// against their ordered cutoffs. The build runs on a transient Builder with
// up to runtime.GOMAXPROCS workers; callers in steady-state loops should
// hold their own Builder and use BuildInto to reuse its scratch.
func Build(sys *atoms.System, cuts *CutoffTable) *Pairs {
	var b Builder
	defer b.Close() // release the transient pool's goroutines
	p := &Pairs{}
	b.BuildInto(p, sys, cuts)
	return p
}

// useCellList reports whether binning is applicable: periodic box at least
// 3 cells wide per dimension (otherwise the O(N^2) minimum-image path runs).
func useCellList(sys *atoms.System, rc float64) bool {
	if !sys.PBC {
		return sys.NumAtoms() > 512 // large molecules still benefit
	}
	for k := 0; k < 3; k++ {
		if sys.Cell[k] < 3*rc {
			return false
		}
	}
	return true
}

// Pad grows the pair list to at least ceil(factor * NumReal) entries by
// appending fake pairs between two virtual atoms far beyond every cutoff,
// mirroring the 5% Kokkos buffer padding that stabilizes PyTorch allocator
// behaviour. Fake pairs have zero cutoff envelope and therefore contribute
// nothing to energies or forces; they exist so input shapes stay constant
// across MD steps.
func (p *Pairs) Pad(factor float64) {
	if factor <= 1 {
		return
	}
	p.PadTo(int(math.Ceil(factor * float64(p.NumReal))))
}

// PadTo grows the pair list with fake pairs until it holds exactly target
// entries (no-op if it is already at least that long). Padding to a running
// maximum keeps input shapes constant across MD steps, which is what lets
// arena-backed evaluation reuse its storage layout verbatim.
func (p *Pairs) PadTo(target int) {
	for p.Len() < target {
		rc := 1.0
		if p.NumReal > 0 {
			rc = p.Cut[0]
		}
		p.I = append(p.I, 0)
		p.J = append(p.J, 0)
		// Distance placed just inside the admitting cutoff times 0.999999
		// would still contribute; instead fake pairs sit at 0.999*rc with a
		// cutoff entry equal to the distance so the envelope is exactly 0.
		d := rc * 0.999
		p.Vec = append(p.Vec, [3]float64{d, 0, 0})
		p.Dist = append(p.Dist, d)
		p.Cut = append(p.Cut, d) // r == rc => envelope exactly 0
	}
}

// FilterCenters returns a new pair list keeping only real pairs whose
// center atom satisfies keep[I[z]] — the pair subset a domain-decomposition
// rank owns. Padding is dropped.
func (p *Pairs) FilterCenters(keep []bool) *Pairs {
	out := &Pairs{NAtoms: p.NAtoms}
	for z := 0; z < p.NumReal; z++ {
		if !keep[p.I[z]] {
			continue
		}
		out.I = append(out.I, p.I[z])
		out.J = append(out.J, p.J[z])
		out.Vec = append(out.Vec, p.Vec[z])
		out.Dist = append(out.Dist, p.Dist[z])
		out.Cut = append(out.Cut, p.Cut[z])
	}
	out.NumReal = len(out.I)
	return out
}

// AvgNeighbors returns the mean number of (real) neighbors per atom, the
// normalization constant for Allegro's environment sums.
func (p *Pairs) AvgNeighbors() float64 {
	if p.NAtoms == 0 {
		return 0
	}
	return float64(p.NumReal) / float64(p.NAtoms)
}

// Validate checks structural invariants of an exact-cutoff list; tests call
// it after construction. Verlet-skin lists (Builder.Skin > 0) admit pairs
// out to Cut+skin and must be checked with ValidateSkin instead.
func (p *Pairs) Validate() error { return p.ValidateSkin(0, nil, nil) }

// ValidateSkin checks structural invariants allowing pair distances up to
// Cut+skin (the Verlet shell). When sys and cuts are non-nil it additionally
// verifies that every real pair's recorded Cut equals the builder's true
// ordered cutoff cuts.Rc[species(I)][species(J)] — skin pairs in particular
// must carry the genuine cutoff (and a zero envelope), not the inflated
// admission radius, because the PolyCutoff clamp and the ZBL gate both
// depend on it.
func (p *Pairs) ValidateSkin(skin float64, sys *atoms.System, cuts *CutoffTable) error {
	if len(p.J) != len(p.I) || len(p.Vec) != len(p.I) || len(p.Dist) != len(p.I) || len(p.Cut) != len(p.I) {
		return fmt.Errorf("neighbor: ragged pair arrays")
	}
	for z := 0; z < p.NumReal; z++ {
		if p.I[z] < 0 || p.I[z] >= p.NAtoms || p.J[z] < 0 || p.J[z] >= p.NAtoms {
			return fmt.Errorf("neighbor: pair %d references atom out of range", z)
		}
		if p.I[z] == p.J[z] {
			return fmt.Errorf("neighbor: self pair at %d", z)
		}
		if p.Dist[z] >= p.Cut[z]+skin {
			return fmt.Errorf("neighbor: pair %d beyond its cutoff+skin (%g >= %g+%g)", z, p.Dist[z], p.Cut[z], skin)
		}
		if sys != nil && cuts != nil {
			want := cuts.Rc[cuts.Index.Index(sys.Species[p.I[z]])][cuts.Index.Index(sys.Species[p.J[z]])]
			if p.Cut[z] != want {
				return fmt.Errorf("neighbor: pair %d records cutoff %g, ordered table says %g", z, p.Cut[z], want)
			}
		}
		v := p.Vec[z]
		r := math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
		if math.Abs(r-p.Dist[z]) > 1e-9 {
			return fmt.Errorf("neighbor: pair %d distance inconsistent", z)
		}
	}
	return nil
}
