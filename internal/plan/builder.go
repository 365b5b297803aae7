package plan

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
	"repro/internal/tensor/kern"
)

// Builder records one forward pass into a Program: each method performs the
// arithmetic of the corresponding ad.Tape operation, assigns the output a
// register in the contiguous slab, and appends a fused op record. It is one
// of the two executors of core's forward definition (the tape is the other),
// so both run the same op sequence, which is what makes replay bit-identical.
type Builder struct {
	p       *Program
	slabTop int
	gradTop int
	maxLin  int // largest m*k over linear ops: sizes the shared scratch
}

// NewBuilder starts a program for Z pairs over N atoms under the model's
// (Compute, Store, Final) precision triple.
func NewBuilder(z, nAtoms int, compute, store, final tensor.Precision) *Builder {
	return &Builder{p: &Program{
		Z: z, N: nAtoms,
		compute: compute, store: store, final: final,
	}}
}

// val assigns a register of n elements, with a gradient slot when diff.
func (b *Builder) val(n int, diff bool) Reg {
	r := Reg{Off: b.slabTop, GOff: -1, N: n}
	b.slabTop += n
	if diff {
		r.GOff = b.gradTop
		b.gradTop += n
	}
	return r
}

// zeroed marks a register's forward span for pre-replay zeroing.
func (b *Builder) zeroed(r Reg) {
	b.p.zeroSpans = append(b.p.zeroSpans, span{off: r.Off, n: r.N})
}

func (b *Builder) push(o op) Reg {
	b.p.ops = append(b.p.ops, o)
	return o.out
}

// InputRvec declares the [Z,3] pair-displacement leaf (the force root).
func (b *Builder) InputRvec() Reg {
	b.p.rvec = b.val(3*b.p.Z, true)
	return b.p.rvec
}

// InputOneHot declares the [Z,2S] species one-hot leaf (non-differentiable;
// refilled from Inputs.TI/TJ each replay).
func (b *Builder) InputOneHot(s int) Reg {
	b.p.species = s
	b.p.oneHot = b.val(2*s*b.p.Z, false)
	b.zeroed(b.p.oneHot)
	return b.p.oneHot
}

// Norm records r = |rvec| ([Z,1]; no store rounding, like the tape).
func (b *Builder) Norm(x Reg) Reg {
	return b.push(op{kind: opNorm, x: x, out: b.val(b.p.Z, true), z: b.p.Z})
}

// PolyCutoff records the polynomial envelope with exponent pp over the
// per-pair cutoffs of Inputs.Cut.
func (b *Builder) PolyCutoff(r Reg, pp int) Reg {
	fp := float64(pp)
	o := op{kind: opPolyCutoff, x: r, out: b.val(b.p.Z, true), z: b.p.Z,
		fp: fp, c1: (fp + 1) * (fp + 2) / 2, c2: fp * (fp + 2), c3: fp * (fp + 1) / 2}
	b.zeroed(o.out)
	return b.push(o)
}

// Bessel records the nb-function sine-Bessel radial basis [Z,nb].
func (b *Builder) Bessel(r Reg, nb int) Reg {
	return b.push(op{kind: opBessel, x: r, out: b.val(b.p.Z*nb, true), z: b.p.Z, nb: nb})
}

// SphHarm records the spherical-harmonic embedding [Z,dim] together with its
// analytic gradient table (always computed: inference differentiates the
// pair vectors).
func (b *Builder) SphHarm(rvec Reg, lmax, dim int) Reg {
	o := op{kind: opSphHarm, x: rvec, out: b.val(b.p.Z*dim, true),
		y: b.val(b.p.Z*dim*3, false), z: b.p.Z, lmax: lmax, c: dim}
	if len(b.p.sphBuf) < dim {
		b.p.sphBuf = make([]float64, dim)
		b.p.sphGBuf = make([][3]float64, dim)
	}
	return b.push(o)
}

// MulBroadcast records y = x * s with one trailing broadcast dimension
// (rows blocks of c elements; s has rows entries).
func (b *Builder) MulBroadcast(x, s Reg, rows, c int) Reg {
	return b.push(op{kind: opMulBroadcast, x: x, y: s, out: b.val(rows*c, true), rows: rows, c: c})
}

// Concat2 records the two-input row concatenation the Allegro graph uses.
func (b *Builder) Concat2(a, bb Reg, rows, ca, cb int) Reg {
	return b.push(op{kind: opConcat2, x: a, y: bb, out: b.val(rows*(ca+cb), true),
		rows: rows, ca: ca, cb: cb, adiff: a.GOff >= 0, bdiff: bb.GOff >= 0})
}

// Linear records y = x W^T (+ bias) for x [m,k] and W [n,k] (an nn linear
// layer with out=n). W and bias reference the live model parameters; the
// narrow-compute weight rounding is folded once at Finish.
func (b *Builder) Linear(x Reg, w, bias *tensor.Tensor, m int) Reg {
	n, k := w.Shape[0], w.Shape[1]
	o := op{kind: opLinear, x: x, out: b.val(m*n, true), wT: w, m: m, k: k, n: n}
	if bias != nil {
		o.bias = bias.Data
	}
	if mk := m * k; mk > b.maxLin {
		b.maxLin = mk
	}
	return b.push(o)
}

// SiLU records the elementwise x*sigmoid(x).
func (b *Builder) SiLU(x Reg) Reg {
	return b.push(op{kind: opSiLU, x: x, out: b.val(x.N, true)})
}

// OuterMul records V0[z,u,:] = s[z,u] * y[z,:].
func (b *Builder) OuterMul(s, y Reg, z, u, c int) Reg {
	return b.push(op{kind: opOuterMul, x: s, y: y, out: b.val(z*u*c, true), z: z, u: u, c: c})
}

// EnvSum records the neighbor-environment scatter sum [N,u,c] over the
// centers of Inputs.I, scaled by the environment normalization.
func (b *Builder) EnvSum(w, y Reg, u, c int, scale float64) Reg {
	o := op{kind: opEnvSum, x: w, y: y, out: b.val(b.p.N*u*c, true),
		z: b.p.Z, u: u, c: c, alpha: scale}
	b.zeroed(o.out)
	return b.push(o)
}

// Gather records the per-pair gather of center rows (rowLen elements each)
// by Inputs.I.
func (b *Builder) Gather(x Reg, rowLen int) Reg {
	return b.push(op{kind: opGather, x: x, out: b.val(b.p.Z*rowLen, true), c: rowLen})
}

// TP records the fused equivariant tensor product over the layer's
// weight-folded entry table (Inputs.Fused[layer], packed form for narrow
// compute). Only the accumulating F64 contraction needs its output
// pre-zeroed; the narrow kernel overwrites every block.
func (b *Builder) TP(x, y Reg, layer, zu, w1, w2, w3 int) Reg {
	o := op{kind: opTP, x: x, y: y, out: b.val(zu*w3, true),
		layer: layer, zu: zu, w1: w1, w2: w2, w3: w3}
	if b.p.compute == tensor.F64 {
		b.zeroed(o.out)
	}
	return b.push(o)
}

// SliceLast records x[..., lo:lo+width] for rows blocks of last elements.
func (b *Builder) SliceLast(x Reg, rows, width, last, lo int) Reg {
	return b.push(op{kind: opSlice, x: x, out: b.val(rows*width, true),
		rows: rows, c: width, last: last, lo: lo})
}

// Add records a + b (equal shapes).
func (b *Builder) Add(a, bb Reg) Reg {
	if a.N != bb.N {
		panic(fmt.Sprintf("plan: Add length mismatch %d vs %d", a.N, bb.N))
	}
	return b.push(op{kind: opAdd, x: a, y: bb, out: b.val(a.N, true)})
}

// Scale records c*x; finalQ additionally applies the Final-precision
// rounding in place (the tape's quantize-before-reduction step).
func (b *Builder) Scale(x Reg, c float64, finalQ bool) Reg {
	return b.push(op{kind: opScale, x: x, out: b.val(x.N, true), alpha: c, finalQ: finalQ})
}

// WeightedSumAll records the sigma-weighted energy reduction (the root; its
// adjoint seed is 1).
func (b *Builder) WeightedSumAll(x Reg) Reg {
	r := b.push(op{kind: opWeightedSum, x: x, out: b.val(1, false)})
	b.p.energy = r
	return r
}

// SetPairE marks the per-pair energy register harvested by row evaluations.
func (b *Builder) SetPairE(r Reg) { b.p.pairE = r }

// gradConsumers appends the gradient offsets of an op's differentiated
// inputs — the registers its backward accumulates into.
func gradConsumers(o *op, dst []int) []int {
	switch o.kind {
	case opMulBroadcast, opOuterMul, opEnvSum, opTP, opAdd:
		dst = append(dst, o.x.GOff, o.y.GOff)
	case opConcat2:
		if o.adiff {
			dst = append(dst, o.x.GOff)
		}
		if o.bdiff {
			dst = append(dst, o.y.GOff)
		}
	default:
		dst = append(dst, o.x.GOff)
	}
	return dst
}

// Finish allocates the slabs and scratch, builds the tensor headers the
// matmul kernels run over, pre-rounds the frozen weights for narrow compute,
// resolves the static optimizations (single-consumer direct backward,
// provably no-op store rounding), and returns the executable program.
func (b *Builder) Finish() *Program {
	p := b.p
	p.slab = make([]float64, b.slabTop)
	p.grad = make([]float64, b.gradTop)
	p.bwd = make([]float64, b.maxLin)
	if p.compute != tensor.F64 {
		p.f32a = make([]float32, b.maxLin)
	}

	// Consumer counts per gradient region: a linear whose input gradient is
	// accumulated by that linear alone can matmul straight into it.
	uses := map[int]int{}
	var scratch []int
	for i := range p.ops {
		scratch = gradConsumers(&p.ops[i], scratch[:0])
		for _, g := range scratch {
			uses[g]++
		}
	}

	// Narrow-compute outputs are exact float32 values; storing them at F32
	// re-rounds them to themselves, so the sweep is statically elided.
	f32Exact := p.compute != tensor.F64 && p.store == tensor.F32

	direct := map[int]int{} // grad offset -> region length, skipped in the pre-clear
	tile64Len := 0          // F64 tile-fusion buffer: tileRows times the widest fused k
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opTP:
			o.noQuant = f32Exact
		case opSiLU:
			// SiLU→Linear fusion: the activation goes straight into the
			// matmul's operand path when the linear is its sole consumer.
			// Under narrow compute both kernel sets fuse (whole-slab fill for
			// the reference kernels, tile streaming for kern); under F64 only
			// the kern tile path can (the reference F64 matmul reads the
			// SiLU's slab output), so the flag is separate and the unfused
			// records stay fully functional.
			if i+1 < len(p.ops) &&
				p.ops[i+1].kind == opLinear && p.ops[i+1].x.Off == o.out.Off &&
				uses[o.out.GOff] == 1 {
				if p.compute != tensor.F64 {
					o.fused = true
					p.ops[i+1].fused = true
				} else {
					o.fuse64 = true
					p.ops[i+1].fuse64 = true
				}
				p.ops[i+1].sx = o.x
			}
		case opLinear:
			o.noQuant = f32Exact // only consulted on the bias-free path
			o.direct = uses[o.x.GOff] == 1
			o.xT = tensor.FromSlice(p.slab[o.x.Off:o.x.Off+o.x.N], o.m, o.k)
			o.outT = tensor.FromSlice(p.slab[o.out.Off:o.out.Off+o.out.N], o.m, o.n)
			o.goutT = tensor.FromSlice(p.grad[o.out.GOff:o.out.GOff+o.out.N], o.m, o.n)
			if o.direct {
				o.scrT = tensor.FromSlice(p.grad[o.x.GOff:o.x.GOff+o.x.N], o.m, o.k)
				direct[o.x.GOff] = o.x.N
			} else {
				o.scrT = tensor.FromSlice(p.bwd[:o.m*o.k], o.m, o.k)
			}
			if p.compute != tensor.F64 {
				o.rw = make([]float32, len(o.wT.Data))
				tensor.RoundSliceTo(o.rw, o.wT.Data, p.compute)
				o.pw = kern.PackPanelB32(o.rw, o.n, o.k)
			} else {
				o.pw64 = kern.PackPanelB64(o.wT.Data, o.n, o.k)
				if o.fuse64 && tileRows*o.k > tile64Len {
					tile64Len = tileRows * o.k
				}
			}
		}
	}
	if tile64Len > 0 {
		p.tile64 = make([]float64, tile64Len)
	}
	p.gradZero = complementSpans(len(p.grad), direct)

	p.forceRows = tensor.FromSlice(p.grad[p.rvec.GOff:p.rvec.GOff+p.rvec.N], p.Z, 3)
	return p
}

// complementSpans returns [0,total) minus the excluded regions, merged into
// maximal runs (the gradient pre-clear set).
func complementSpans(total int, excluded map[int]int) []span {
	offs := make([]int, 0, len(excluded))
	for off := range excluded {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	var out []span
	cur := 0
	for _, off := range offs {
		if off > cur {
			out = append(out, span{off: cur, n: off - cur})
		}
		cur = off + excluded[off]
	}
	if cur < total {
		out = append(out, span{off: cur, n: total - cur})
	}
	return out
}
