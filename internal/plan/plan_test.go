package plan

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/o3"
	"repro/internal/tensor"
)

type precision struct {
	name                  string
	compute, store, final tensor.Precision
}

// The two operating points of the repo (exact, production) plus one triple
// for each remaining branch of the fused SiLU→Linear rounding chain.
var precisions = []precision{
	{"exact", tensor.F64, tensor.F64, tensor.F64},
	{"production", tensor.TF32, tensor.F32, tensor.F64},
	{"tf32-over-f64", tensor.TF32, tensor.F64, tensor.F64},
	{"f32", tensor.F32, tensor.F32, tensor.F32},
}

// miniProgram compiles a one-layer Allegro-shaped program — every op kind,
// in compilePlan's order — over z pairs of which the last pad are padding
// (zero envelope, like neighbor.Pairs.PadTo), with random frozen weights at
// the store precision. The layer widths are ragged against every kern tile:
// 17 spans two float32 panels and three float64 panels with one live column
// in the last, 9 is one backward tile plus an overlapped one, 5 and 2 are
// narrower than any tile.
func miniProgram(z, pad int, pr precision, rng *rand.Rand) (*Program, *Inputs) {
	const (
		species, nAtoms, nb, lmax, u = 2, 4, 4, 1, 2
		latent, hidden, edge         = 9, 17, 5
	)
	b := NewBuilder(z, nAtoms, pr.compute, pr.store, pr.final)
	weight := func(shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data {
			w.Data[i] = pr.store.Round(rng.NormFloat64() / math.Sqrt(float64(shape[len(shape)-1])))
		}
		return w
	}
	mlp := func(x Reg, sizes ...int) Reg {
		for l := 1; l < len(sizes); l++ {
			x = b.Linear(x, weight(sizes[l], sizes[l-1]), weight(sizes[l]), z)
			if l+1 < len(sizes) {
				x = b.SiLU(x)
			}
		}
		return x
	}

	rvec := b.InputRvec()
	oneHot := b.InputOneHot(species)
	r := b.Norm(rvec)
	env := b.PolyCutoff(r, 6)
	besCut := b.MulBroadcast(b.Bessel(r, nb), env, z, nb)
	sphDim := o3.SphDim(lmax)
	sph := b.SphHarm(rvec, lmax, sphDim)

	h := mlp(b.Concat2(oneHot, besCut, z, 2*species, nb), 2*species+nb, hidden, latent)
	v := b.OuterMul(b.Linear(h, weight(u, latent), nil, z), sph, z, u, sphDim)

	sphIrreps := o3.SphericalIrreps(lmax)
	tp := o3.NewTensorProduct(sphIrreps, sphIrreps, o3.Irreps{{L: 0, P: o3.Even}})
	wEnv := b.MulBroadcast(b.Linear(h, weight(u, latent), nil, z), env, z, u)
	envPairs := b.Gather(b.EnvSum(wEnv, sph, u, sphDim, 0.5), u*sphDim)
	tpo := b.TP(v, envPairs, 0, z*u, tp.In1.Width, tp.In2.Width, tp.Out.Width)
	lo, hi := tp.Out.Block(tp.Out.ScalarIndex())
	scal := b.Copy(b.SliceLast(tpo, z*u, hi-lo, tp.Out.Width, lo))
	hNew := mlp(b.Concat2(h, scal, z, latent, u), latent+u, hidden, hidden, latent)
	h = b.Scale(b.Add(h, hNew), 1/math.Sqrt(2.0), false)

	ePair := b.MulBroadcast(mlp(h, latent, edge, 1), env, z, 1)
	if pr.final != tensor.F64 {
		ePair = b.Scale(ePair, 1, true)
	}
	b.SetPairE(ePair)
	b.WeightedSumAll(ePair)

	fused := tp.FlattenInto(nil, weight(tp.NumPaths()).Data)
	in := &Inputs{Scale: 0.37, Fused: [][]o3.TPEntry{fused}}
	in.FusedS = [][]o3.TPEntry{append([]o3.TPEntry(nil), fused...)}
	o3.SortEntriesByC(in.FusedS[0])
	if pr.compute != tensor.F64 {
		packed := o3.PackEntries32(nil, fused)
		in.Fused32 = [][]o3.TPEntry32{packed}
		in.Fused32S = [][]o3.TPEntry32{append([]o3.TPEntry32(nil), packed...)}
		o3.SortEntries32ByC(in.Fused32S[0])
	}
	for i := 0; i < z; i++ {
		const rc = 4.0
		if i >= z-pad {
			in.Vec = append(in.Vec, [3]float64{0.999 * rc, 0, 0})
			in.Cut = append(in.Cut, 0.999*rc)
			in.I, in.TI, in.TJ = append(in.I, 0), append(in.TI, 0), append(in.TJ, 0)
			continue
		}
		in.Vec = append(in.Vec, [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		in.Cut = append(in.Cut, rc)
		in.I = append(in.I, rng.IntN(nAtoms))
		in.TI, in.TJ = append(in.TI, rng.IntN(species)), append(in.TJ, rng.IntN(species))
	}
	return b.Finish(), in
}

// outputs snapshots what core harvests from a replay.
func outputs(p *Program) []float64 {
	out := []float64{p.Energy()}
	out = append(out, p.PairEnergies()...)
	return append(out, p.ForceRows().Data...)
}

// TestExecuteKernMatchesRefKernels replays small programs — pair counts on
// both sides of the MR row block and of the SiLU→Linear tile height, with
// and without padded pairs — on the kern kernels and on the reference
// kernels, and requires the same energy, pair energies and force rows bit
// for bit, in either order of switching, with no allocation per replay.
func TestExecuteKernMatchesRefKernels(t *testing.T) {
	for _, pr := range precisions {
		for _, z := range []int{1, 3, 5, 33} {
			for _, pad := range []int{0, z / 2} {
				rng := rand.New(rand.NewPCG(uint64(z), uint64(pad)))
				p, in := miniProgram(z, pad, pr, rng)
				p.Execute(in)
				kern := outputs(p)
				if kern[0] == 0 && pad < z {
					t.Fatalf("%s z=%d pad=%d: zero energy, the program computes nothing", pr.name, z, pad)
				}
				for i := z - pad; i < z; i++ {
					if e, f := p.PairEnergies()[i], p.ForceRows().Data[3*i:3*i+3]; e != 0 || f[0] != 0 || f[1] != 0 || f[2] != 0 {
						t.Fatalf("%s z=%d pad=%d: padded pair %d has energy %v, force row %v", pr.name, z, pad, i, e, f)
					}
				}
				for _, ref := range []bool{true, false} {
					p.SetRefKernels(ref)
					p.Execute(in)
					for i, v := range outputs(p) {
						if math.Float64bits(v) != math.Float64bits(kern[i]) {
							t.Fatalf("%s z=%d pad=%d refKernels=%v: output %d = %x, kern first gave %x",
								pr.name, z, pad, ref, i, v, kern[i])
						}
					}
					if a := testing.AllocsPerRun(5, func() { p.Execute(in) }); a != 0 {
						t.Fatalf("%s z=%d pad=%d refKernels=%v: %v allocs per Execute", pr.name, z, pad, ref, a)
					}
				}
			}
		}
	}
}
