package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/ad"
	"repro/internal/atoms"
	"repro/internal/neighbor"
	"repro/internal/nn"
	"repro/internal/o3"
	"repro/internal/tensor"
	"repro/internal/units"
)

// Model is a trained or trainable Allegro potential.
type Model struct {
	Cfg    Config
	Params *nn.ParamSet
	Idx    *atoms.SpeciesIndex
	Cuts   *neighbor.CutoffTable

	twoBody  *nn.MLP          // [2S+NB] -> latent
	embedLin *tensor.Tensor   // latent -> U (initial tensor channel weights)
	envLins  []*tensor.Tensor // per layer: latent -> U (environment weights)
	chanLins []*tensor.Tensor // per layer: latent -> U (post-TP channel weights)
	latents  []*nn.MLP        // per layer: [latent+U] -> latent
	tpWts    []*tensor.Tensor // per layer: path weights
	tps      []*o3.TensorProduct
	edgeMLP  *nn.MLP // latent -> 1

	// EnergyScale multiplies the network output (global force normalization);
	// EnergyShift is the per-species atomic energy shift mu_Z. Both are set
	// from training-set statistics, not trained.
	EnergyScale float64
	EnergyShift []float64

	// fused caches the weight-folded TPEntry tables per layer (the
	// precomputed einsum("p,pcab->cab") of Sec. V-B2), keyed on the
	// parameter version so training still sees fresh weights: every Params
	// mutation (optimizer step, EMA copy, load) bumps the version and the
	// next evaluation re-folds. The mutex makes concurrent lazy folds from
	// domain-runtime ranks sharing one Model safe; mutating Params while
	// evaluations are in flight is racy, exactly as for the raw weights.
	fused struct {
		sync.Mutex
		version uint64
		valid   bool
		tabs    [][]o3.TPEntry
		packed  [][]o3.TPEntry32 // narrow-compute packed form (same fold)
		// Stable C-sorted copies for the blocked forward contraction
		// kernels (the backward keeps the unsorted path-major tables).
		sortedTabs   [][]o3.TPEntry
		sortedPacked [][]o3.TPEntry32
	}
}

// New constructs a randomly initialized Allegro model. cuts may be nil, in
// which case a uniform DefaultCutoff table is used.
func New(cfg Config, cuts *neighbor.CutoffTable, rng *rand.Rand) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	idx := atoms.NewSpeciesIndex(cfg.Species)
	if cuts == nil {
		cuts = neighbor.NewCutoffTable(idx, cfg.DefaultCutoff)
	}
	m := &Model{
		Cfg:         cfg,
		Params:      nn.NewParamSet(),
		Idx:         idx,
		Cuts:        cuts,
		EnergyScale: 1,
		EnergyShift: make([]float64, idx.Len()),
	}
	s := idx.Len()
	u := cfg.NumChannels

	twoBodySizes := append([]int{2*s + cfg.NumBessel}, cfg.TwoBodyHidden...)
	twoBodySizes = append(twoBodySizes, cfg.LatentDim)
	m.twoBody = nn.NewMLP(m.Params, rng, "two_body", twoBodySizes, true)

	m.embedLin = m.addLinear(rng, "embed", u, cfg.LatentDim)

	sphIrreps := o3.SphericalIrreps(cfg.LMax)
	fullIrreps := o3.FullIrreps(cfg.LMax)
	for l := 0; l < cfg.NumLayers; l++ {
		in1 := fullIrreps
		if l == 0 {
			in1 = sphIrreps
		}
		out := fullIrreps
		if l == cfg.NumLayers-1 {
			// Final layer: only paths that reach scalars matter for the
			// energy; restricting the output eliminates dead paths
			// (the paper's "omitting all tensor product paths that are not
			// symmetrically allowed to eventually contribute to the final
			// scalar outputs").
			out = o3.Irreps{{L: 0, P: o3.Even}}
		}
		tp := o3.NewTensorProduct(in1, sphIrreps, out)
		m.tps = append(m.tps, tp)

		wts := tensor.New(tp.NumPaths())
		for i := range wts.Data {
			wts.Data[i] = 1 + 0.1*rng.NormFloat64()
		}
		m.Params.Add(fmt.Sprintf("layer%d.tp_weights", l), wts)
		m.tpWts = append(m.tpWts, wts)

		m.envLins = append(m.envLins, m.addLinear(rng, fmt.Sprintf("layer%d.env", l), u, cfg.LatentDim))
		m.chanLins = append(m.chanLins, m.addLinear(rng, fmt.Sprintf("layer%d.chan", l), u, cfg.LatentDim))

		latentSizes := append([]int{cfg.LatentDim + u}, cfg.LatentHidden...)
		latentSizes = append(latentSizes, cfg.LatentDim)
		m.latents = append(m.latents, nn.NewMLP(m.Params, rng, fmt.Sprintf("layer%d.latent", l), latentSizes, true))
	}
	m.edgeMLP = nn.NewMLP(m.Params, rng, "edge_energy", []int{cfg.LatentDim, cfg.EdgeHidden, 1}, false)
	m.Params.Quantize(cfg.Precision.Weights)
	return m, nil
}

func (m *Model) addLinear(rng *rand.Rand, name string, out, in int) *tensor.Tensor {
	w := tensor.New(out, in)
	bound := math.Sqrt(3.0 / float64(in))
	for i := range w.Data {
		w.Data[i] = (rng.Float64()*2 - 1) * bound
	}
	m.Params.Add(name+".w", w)
	return w
}

// NumWeights returns the number of trainable scalar parameters.
func (m *Model) NumWeights() int { return m.Params.NumParams() }

// fusedTables returns the per-layer weight-folded entry tables in the
// float64 form, the (narrow-compute) packed float32 form, and the stable
// C-sorted copies of both that the blocked forward contraction kernels
// consume. The sort is stable, so every output component sees the same
// addend order as the unsorted table — the sorted tables are a layout
// change, not an arithmetic one.
func (m *Model) fusedTables() ([][]o3.TPEntry, [][]o3.TPEntry32, [][]o3.TPEntry, [][]o3.TPEntry32) {
	v := m.Params.Version()
	f := &m.fused
	f.Lock()
	defer f.Unlock()
	if !f.valid || f.version != v {
		if f.tabs == nil {
			f.tabs = make([][]o3.TPEntry, len(m.tps))
		}
		for l, tp := range m.tps {
			f.tabs[l] = tp.FlattenInto(f.tabs[l][:0], m.tpWts[l].Data)
		}
		if m.Cfg.Precision.Compute != tensor.F64 {
			if f.packed == nil {
				f.packed = make([][]o3.TPEntry32, len(m.tps))
			}
			for l := range m.tps {
				f.packed[l] = o3.PackEntries32(f.packed[l], f.tabs[l])
			}
		}
		if f.sortedTabs == nil {
			f.sortedTabs = make([][]o3.TPEntry, len(m.tps))
		}
		for l := range m.tps {
			f.sortedTabs[l] = append(f.sortedTabs[l][:0], f.tabs[l]...)
			o3.SortEntriesByC(f.sortedTabs[l])
		}
		if m.Cfg.Precision.Compute != tensor.F64 {
			if f.sortedPacked == nil {
				f.sortedPacked = make([][]o3.TPEntry32, len(m.tps))
			}
			for l := range m.tps {
				f.sortedPacked[l] = append(f.sortedPacked[l][:0], f.packed[l]...)
				o3.SortEntries32ByC(f.sortedPacked[l])
			}
		}
		f.version = v
		f.valid = true
	}
	return f.tabs, f.packed, f.sortedTabs, f.sortedPacked
}

// graph holds the tape nodes of one forward pass that later stages need.
type graph struct {
	tape   *ad.Tape
	binder *nn.Binder
	rvec   *ad.Value // [Z,3] pair displacement leaf
	energy *ad.Value // scalar network energy (before scale/shift/ZBL)
	pairE  *ad.Value // [Z,1] per-pair energies (after envelope)
	latent *ad.Value // final latent (diagnostics)
}

// buildGraph runs the Allegro forward pass over the given pair list on a
// fresh heap-backed tape. train selects whether parameters are bound with
// gradients.
func (m *Model) buildGraph(sys *atoms.System, pairs *neighbor.Pairs, train bool) *graph {
	cfg := &m.Cfg
	tape := ad.NewTape(cfg.Precision.Compute, cfg.Precision.Weights)
	z := pairs.Len()

	// Pair displacement leaf (forces flow into this).
	rv := tensor.New(z, 3)
	for i := 0; i < z; i++ {
		copy(rv.Row(i), pairs.Vec[i][:])
	}
	rvec := tape.Leaf(rv, true)

	// Species one-hot for (center, neighbor).
	s := m.Idx.Len()
	oneHot := tensor.New(z, 2*s)
	sigma := tensor.New(z).Data
	for i := 0; i < z; i++ {
		ti := m.Idx.Index(sys.Species[pairs.I[i]])
		tj := m.Idx.Index(sys.Species[pairs.J[i]])
		oneHot.Data[i*2*s+ti] = 1
		oneHot.Data[i*2*s+s+tj] = 1
		sigma[i] = m.EnergyScale
	}

	// Frozen-weight TP tables (re-folded on Params mutation).
	fused, _, _, _ := m.fusedTables()
	g := &tapeOps{tape: tape, b: nn.NewBinder(tape, train), pairs: pairs, m: m, fused: fused}
	ePair, latent := forward(m, g, rvec, tape.Const(oneHot), z)

	// sigma-weighted sum: E_net = sum_z sigma_{Z_i(z)} E_z.
	eNet := tape.WeightedSumAll(ePair, sigma)
	return &graph{tape: tape, binder: g.b, rvec: rvec, energy: eNet, pairE: ePair, latent: latent}
}

// Result holds one evaluation of the potential.
type Result struct {
	Energy   float64      // total energy (eV), including shifts and ZBL
	Forces   [][3]float64 // per-atom forces (eV/A)
	PairWork int          // number of ordered pairs evaluated (incl. padding)
}

// Evaluate computes energy and forces for sys, building a fresh neighbor
// list.
func (m *Model) Evaluate(sys *atoms.System) *Result {
	pairs := neighbor.Build(sys, m.Cuts)
	return m.EvaluatePairs(sys, pairs)
}

// EvaluatePairs computes energy and forces with a caller-provided pair list
// on the autodiff tape — the reference implementation the compiled plans
// are tested against (TestCompiledMatchesTape): the same per-pair rows and
// pair energies as EvaluateRowsInto, through the same ReduceRows, so it
// agrees with EvaluatePairsInto bit for bit.
func (m *Model) EvaluatePairs(sys *atoms.System, pairs *neighbor.Pairs) *Result {
	rows, pairE := m.tapeRows(sys, pairs)
	res := &Result{PairWork: pairs.Len(), Forces: make([][3]float64, sys.NumAtoms())}
	res.Energy = ReduceRows(new(Partial), m, sys.Species, pairs, rows, pairE, res.Forces)
	return res
}

// tapeRows is EvaluateRowsInto on a fresh tape: forward, backward, harvest
// the pair-vector adjoints and sigma-weighted pair energies, fold in each
// pair's ZBL share.
func (m *Model) tapeRows(sys *atoms.System, pairs *neighbor.Pairs) ([][3]float64, []float64) {
	g := m.buildGraph(sys, pairs, false)
	g.tape.Backward(g.energy)
	rows := make([][3]float64, pairs.Len())
	pairE := make([]float64, pairs.Len())
	harvestRows(g.rvec.Grad(), g.pairE.T.Data, rows, pairE, m.EnergyScale)
	if m.Cfg.ZBL {
		addZBLRows(sys, pairs, rows, pairE)
	}
	return rows, pairE
}

// EnergyGradients runs a training-mode forward/backward at (optionally
// displaced) positions and returns the scalar network energy plus parameter
// gradients through the binder. disp may be nil; otherwise it is added to
// the pair vectors (the R-operator displacement of the force-loss trick
// operates on pair vectors directly).
func (m *Model) energyGradients(sys *atoms.System, pairs *neighbor.Pairs, disp []float64) (*graph, float64) {
	if disp != nil {
		// Displace pair vectors consistently with atomic displacement u:
		// rvec_z = r_j - r_i  =>  rvec_z += u_j - u_i.
		shifted := &neighbor.Pairs{
			I: pairs.I, J: pairs.J, Dist: make([]float64, pairs.Len()),
			Vec: make([][3]float64, pairs.Len()), Cut: pairs.Cut,
			NumReal: pairs.NumReal, NAtoms: pairs.NAtoms,
		}
		for z := 0; z < pairs.Len(); z++ {
			i, j := pairs.I[z], pairs.J[z]
			var v [3]float64
			for k := 0; k < 3; k++ {
				v[k] = pairs.Vec[z][k] + disp[3*j+k] - disp[3*i+k]
			}
			shifted.Vec[z] = v
			shifted.Dist[z] = math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
		}
		pairs = shifted
	}
	g := m.buildGraph(sys, pairs, true)
	g.tape.Backward(g.energy)
	return g, g.energy.T.Data[0]
}

// AtomicEnergies returns the per-atom energy decomposition
// E_i = sigma * sum_j E_ij + mu_{Z_i} (+ half ZBL shares).
func (m *Model) AtomicEnergies(sys *atoms.System) []float64 {
	pairs := neighbor.Build(sys, m.Cuts)
	g := m.buildGraph(sys, pairs, false)
	out := make([]float64, sys.NumAtoms())
	for z := 0; z < pairs.NumReal; z++ {
		out[pairs.I[z]] += m.EnergyScale * g.pairE.T.Data[z]
	}
	for i, sp := range sys.Species {
		out[i] += m.EnergyShift[m.Idx.Index(sp)]
	}
	if m.Cfg.ZBL {
		f := make([][3]float64, sys.NumAtoms())
		e := addZBL(sys, pairs, f)
		for i := range out {
			out[i] += e / float64(len(out))
		}
	}
	return out
}

// EnergyForcesCentered evaluates the potential counting only ordered pairs
// whose center atom is owned (domain.CenterPotential). Per-species shifts
// are added for owned atoms only, and the ZBL term runs over the same
// centered pair subset, so summing over a partition of ownership reproduces
// the serial energy and forces exactly — Allegro's strict locality is what
// makes this identity hold.
func (m *Model) EnergyForcesCentered(sys *atoms.System, owned []bool) (float64, [][3]float64) {
	pairs := neighbor.Build(sys, m.Cuts).FilterCenters(owned)
	var ownedSpecies []units.Species
	for i, sp := range sys.Species {
		if owned[i] {
			ownedSpecies = append(ownedSpecies, sp)
		}
	}
	forces := make([][3]float64, sys.NumAtoms())
	var rows [][3]float64
	var pairE []float64
	if pairs.NumReal > 0 {
		rows, pairE = m.tapeRows(sys, pairs)
	}
	return ReduceRows(new(Partial), m, ownedSpecies, pairs, rows, pairE, forces), forces
}

// SetScaleShift installs the energy normalization: scale multiplies the
// network output, shift[s] is added per atom of species index s.
func (m *Model) SetScaleShift(scale float64, shift []float64) {
	if len(shift) != m.Idx.Len() {
		panic("core: shift length must match species count")
	}
	m.EnergyScale = scale
	copy(m.EnergyShift, shift)
}

// SpeciesOf exposes the model's species index (needed by callers building
// systems for this model).
func (m *Model) SpeciesOf() []units.Species { return m.Cfg.Species }
