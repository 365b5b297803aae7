// Package plan implements the compiled inference engine: record-once/replay
// execution plans that retire the per-step autodiff tape from the MD hot
// path. The paper's speed at scale comes from treating inference as a fixed,
// fused computation — custom fused tensor-product kernels and a frozen
// (Final, Weights, Compute) mixed-precision pipeline — rather than a general
// autodiff graph; a Program is the Go analogue: the Allegro forward pass is
// recorded once per (model, chunk-shape) into a flat array of op records
// with pre-assigned offsets into one contiguous activation slab, plus the
// hand-scheduled analytic backward as a second flat pass over the same
// records. Replay walks the two arrays with a kind switch — no Value or
// Tape objects, no graph walk, no per-op dispatch through interfaces, no
// per-call weight re-rounding or TPEntry re-folding — and performs zero
// heap allocations at every precision.
//
// Replay is bit-identical to the tape path: one definition, two executors —
// core's forward runs on both the Builder and the tape, every op record
// performs the corresponding ad.Tape operation's arithmetic (same kernels,
// same rounding points, same accumulation order), and the backward mirrors
// the pooled ops of ad/backops.go with the weight-gradient branches
// statically removed (weights are frozen during inference, so their
// adjoints are dead work).
//
// A Program is compiled for one exact shape (Z pairs, N atoms) and one
// model; core caches Programs per shape and invalidates them when the
// parameter version moves (see core's plan cache). Like an EvalScratch, a
// Program belongs to one evaluation context and is not safe for concurrent
// use.
package plan

import (
	"math"
	"time"

	"repro/internal/o3"
	"repro/internal/tensor"
	"repro/internal/tensor/kern"
)

// Reg is a register of the plan: a span of the forward slab and, for
// differentiated values, the matching span of the gradient slab.
type Reg struct {
	Off  int // forward slab offset
	GOff int // gradient slab offset; -1 when not differentiated
	N    int // element count
}

// Inputs carries the per-call data of one replay: the pair geometry and
// species pattern (the only things that change between calls of the same
// shape), the model's current energy scale, and the frozen-weight fused
// tensor-product tables.
type Inputs struct {
	Vec     [][3]float64     // pair displacement vectors (len Z)
	Cut     []float64        // per-pair ordered cutoffs (len Z)
	I       []int            // pair center atoms (len Z)
	TI, TJ  []int            // species indices of center / neighbor (len Z)
	Scale   float64          // model energy scale sigma
	Fused   [][]o3.TPEntry   // per-layer weight-folded TP entry tables
	Fused32 [][]o3.TPEntry32 // packed form (required for narrow compute)
	// FusedS / Fused32S are stable C-sorted copies of the tables above, the
	// operand form of the blocked forward contraction kernels (the backward
	// always walks the unsorted path-major tables — sorting would reorder the
	// gX/gY accumulation). When nil, the forward falls back to the unblocked
	// kernels; results are bit-identical either way.
	FusedS   [][]o3.TPEntry
	Fused32S [][]o3.TPEntry32
}

// opKind enumerates the fused op records. The executor dispatches with a
// switch — the flat-array replacement for the tape's backOp interface.
type opKind uint8

const (
	opNorm opKind = iota
	opPolyCutoff
	opBessel
	opSphHarm
	opMulBroadcast
	opConcat2
	opLinear
	opSiLU
	opOuterMul
	opEnvSum
	opGather
	opTP
	opSlice
	opAdd
	opScale
	opWeightedSum
)

// op is one fused record: operand registers plus the precomputed dims,
// constants, weight references, and prebuilt tensor headers its kernels
// need. Records are laid out in execution order; the backward pass walks
// them in reverse.
type op struct {
	kind      opKind
	x, y, out Reg

	// Linear: prebuilt headers over the slab/grad/scratch regions so the
	// tensor matmul kernels run without per-call shape assembly.
	xT, outT, wT, scrT, goutT *tensor.Tensor
	bias                      []float64
	rw                        []float32 // pre-rounded weights (narrow compute)
	pw                        []float32 // rw repacked into kern column panels
	pw64                      []float64 // F64 weights repacked into kern panels
	m, k, n                   int       // batch, in, out

	rows, c, last, lo int  // broadcast / slice / gather dims
	ca, cb            int  // concat widths
	adiff, bdiff      bool // concat input differentiability
	// direct marks a linear whose input has exactly one consumer: its
	// backward matmul writes the (un-precleared) gradient region directly,
	// skipping the scratch add pass. Bit-identical: the region's only other
	// state would be the zero fill, and 0 + s == s for every matmul row sum
	// (the kernel's skip-zero accumulation never produces -0).
	direct bool
	// noQuant marks outputs whose store rounding is a statically provable
	// no-op: float32-accumulated values under F32 storage.
	noQuant bool
	// fused marks a SiLU→Linear pair under narrow compute: the SiLU writes
	// its store-rounded, compute-rounded values straight into the matmul's
	// float32 operand buffer (its f64 slab value is dead — inference
	// backward reads only the SiLU *input*), and the linear skips its
	// operand rounding pass. The value chain (activation → store round →
	// tile-load round) is unchanged, element for element. With the kern
	// kernels the pair goes further: the SiLU record becomes a no-op and the
	// linear streams the activation tile by tile (tileRows rows of sx at a
	// time) through a hot operand buffer into the packed-panel matmul.
	fused bool
	// fuse64 is the F64-compute form of the same pairing, legal only with
	// the kern kernels (the reference F64 matmul reads the SiLU's slab
	// output, so under refKernels the pair runs unfused as before).
	fuse64 bool
	// sx is the SiLU input register of a fused pair — the operand the
	// linear's tile loop activates from.
	sx Reg

	alpha  float64 // scale constant / env-sum normalization
	finalQ bool    // apply the Final-precision rounding after the op

	layer          int // index into Inputs.Fused
	zu, w1, w2, w3 int // TP block count and layout widths
	z, u           int
	nb, lmax       int

	fp, c1, c2, c3 float64 // polynomial cutoff constants
}

// span is a forward-slab range zeroed before each replay (accumulating or
// sparsely written regions; everything else is fully overwritten).
type span struct{ off, n int }

// Program is a compiled (model, shape) execution plan plus its replay state.
type Program struct {
	Z, N int

	compute, store, final tensor.Precision

	ops       []op
	slab      []float64
	grad      []float64
	zeroSpans []span
	// gradZero is the pre-replay zero set of the gradient slab: every
	// differentiated register except the regions direct backward matmuls
	// fully overwrite.
	gradZero []span

	f32a   []float32 // activation rounding scratch (narrow matmuls)
	tile64 []float64 // F64 tile-fusion operand buffer (fuse64 linears)
	bwd    []float64 // linear-backward matmul scratch

	// refKernels switches replay back to the pre-kern reference kernels
	// (unpacked matmuls, unblocked contractions, whole-slab SiLU fusion).
	// Both settings produce bit-identical results; the toggle exists so the
	// BENCH_simd harness can measure reference vs kern on the same machine
	// and plan.
	refKernels bool

	sphBuf  []float64
	sphGBuf [][3]float64

	rvec    Reg
	oneHot  Reg
	pairE   Reg
	energy  Reg
	species int // S: one-hot width is 2S

	forceRows *tensor.Tensor // [Z,3] header over grad(rvec)
}

// Energy returns the scalar network energy of the last replay (before
// per-species shifts and ZBL, exactly like the tape's root value).
func (p *Program) Energy() float64 { return p.slab[p.energy.Off] }

// ForceRows returns the [Z,3] pair-vector adjoint of the last replay — the
// same rows the tape path reads from rvec.Grad(). The header is owned by the
// program and overwritten by the next Execute.
func (p *Program) ForceRows() *tensor.Tensor { return p.forceRows }

// PairEnergies returns the per-pair energies of the last replay (after the
// cutoff envelope and Final-precision rounding, before the sigma scale),
// aliasing program storage.
func (p *Program) PairEnergies() []float64 {
	return p.slab[p.pairE.Off : p.pairE.Off+p.pairE.N]
}

// SlabFloats reports the program's activation+gradient footprint in float64
// words (diagnostics/tests).
func (p *Program) SlabFloats() int { return len(p.slab) + len(p.grad) }

// NumOps returns the number of fused op records (diagnostics/tests).
func (p *Program) NumOps() int { return len(p.ops) }

// SetRefKernels selects between the kern microkernels (false, the default)
// and the pre-kern reference kernels (true). The two settings are
// bit-identical; see the refKernels field.
func (p *Program) SetRefKernels(v bool) { p.refKernels = v }

// tileRows is the activation tile height of the fused SiLU→Linear streaming
// path: the linear activates tileRows rows of its SiLU input into a hot
// operand buffer and hands them to the packed row kernel at full register-
// tile height. Small enough that buffer plus panel stay cache-resident,
// large enough to amortize the panel sweep.
const tileRows = 32

// prepare clears the accumulating spans and fills the input registers: pair
// displacements and the species one-hot.
func (p *Program) prepare(in *Inputs) {
	for _, s := range p.gradZero {
		clear(p.grad[s.off : s.off+s.n])
	}
	for _, s := range p.zeroSpans {
		clear(p.slab[s.off : s.off+s.n])
	}

	rv := p.slab[p.rvec.Off : p.rvec.Off+p.rvec.N]
	for i, v := range in.Vec {
		rv[3*i] = v[0]
		rv[3*i+1] = v[1]
		rv[3*i+2] = v[2]
	}
	if p.oneHot.N > 0 {
		oh := p.slab[p.oneHot.Off : p.oneHot.Off+p.oneHot.N]
		w := 2 * p.species
		for z := 0; z < p.Z; z++ {
			oh[z*w+in.TI[z]] = 1
			oh[z*w+p.species+in.TJ[z]] = 1
		}
	}
}

// Execute replays the plan for one set of inputs: fills the input registers,
// runs the forward records in order, then the analytic backward in reverse.
// It performs no heap allocations.
func (p *Program) Execute(in *Inputs) {
	p.prepare(in)
	for i := range p.ops {
		p.forward(&p.ops[i], in)
	}
	for i := len(p.ops) - 1; i >= 0; i-- {
		p.backward(&p.ops[i], in)
	}
}

// KernelProfile is a per-kernel-class wall-time breakdown of one or more
// replays, accumulated by ExecuteProfiled (the per-kernel plan.* rows of
// bench --trace 1).
type KernelProfile struct {
	Linear  time.Duration // forward matmuls (incl. fused activation tiles)
	TP      time.Duration // forward tensor-product contractions
	BwdLin  time.Duration // backward matmuls
	BwdTP   time.Duration // backward contractions
	EnvRows time.Duration // env scatter/gather + outer-mul rows (fwd+bwd)
	Radial  time.Duration // norm/cutoff/Bessel/spherical rows (fwd+bwd)
	Other   time.Duration // everything else (broadcasts, copies, reductions)
	Replays int
}

// Total returns the summed kernel time of the profile.
func (kp *KernelProfile) Total() time.Duration {
	return kp.Linear + kp.TP + kp.BwdLin + kp.BwdTP + kp.EnvRows + kp.Radial + kp.Other
}

func (kp *KernelProfile) add(kind opKind, fwd bool, d time.Duration) {
	switch kind {
	case opLinear, opSiLU:
		if fwd {
			kp.Linear += d
		} else {
			kp.BwdLin += d
		}
	case opTP:
		if fwd {
			kp.TP += d
		} else {
			kp.BwdTP += d
		}
	case opEnvSum, opGather, opOuterMul:
		kp.EnvRows += d
	case opNorm, opPolyCutoff, opBessel, opSphHarm:
		kp.Radial += d
	default:
		kp.Other += d
	}
}

// ExecuteProfiled is Execute with per-op timing folded into kp. The timer
// calls add measurable overhead on the smallest ops, so it is a diagnostic
// entry point, not the hot path.
func (p *Program) ExecuteProfiled(in *Inputs, kp *KernelProfile) {
	p.prepare(in)
	for i := range p.ops {
		t0 := time.Now()
		p.forward(&p.ops[i], in)
		kp.add(p.ops[i].kind, true, time.Since(t0))
	}
	for i := len(p.ops) - 1; i >= 0; i-- {
		t0 := time.Now()
		p.backward(&p.ops[i], in)
		kp.add(p.ops[i].kind, false, time.Since(t0))
	}
	kp.Replays++
}

// fwdOf returns the forward values of a register.
func (p *Program) fwdOf(r Reg) []float64 { return p.slab[r.Off : r.Off+r.N] }

// gradOf returns the gradient slot of a register (r.GOff must be >= 0).
func (p *Program) gradOf(r Reg) []float64 { return p.grad[r.GOff : r.GOff+r.N] }

// quant rounds xs to precision q in place (no-op for F64), the slab analogue
// of the tape's store() step with the per-element dispatch hoisted out.
func quant(xs []float64, q tensor.Precision) {
	switch q {
	case tensor.F64:
	case tensor.F32:
		for i, v := range xs {
			xs[i] = float64(float32(v))
		}
	default:
		for i, v := range xs {
			xs[i] = tensor.RoundTF32(v)
		}
	}
}

// siluRound32 fills a narrow-compute matmul operand buffer with the fused
// SiLU→Linear activation chain: SiLU, then the store rounding, then the
// tile-load rounding, collapsed into one specialized loop per precision
// pair. Shared by the reference (whole-slab, fast=false: the pre-kern branchy
// rounder) and kern (tile-streamed, fast=true: the bit-identical branch-free
// RoundTF32Fast) fusion paths, so the per-element values agree by
// construction either way.
func siluRound32(ra []float32, x []float64, compute, store tensor.Precision, fast bool) {
	switch {
	case compute == tensor.TF32 && store == tensor.F32:
		if fast {
			for i, v := range x {
				ra[i] = float32(tensor.RoundTF32Fast(float64(float32(v / (1 + math.Exp(-v))))))
			}
		} else {
			for i, v := range x {
				ra[i] = float32(tensor.RoundTF32(float64(float32(v / (1 + math.Exp(-v))))))
			}
		}
	case store == tensor.TF32 || compute == tensor.TF32:
		// TF32 storage followed by any tile rounding, and TF32 tiles over
		// unrounded (F64) storage, both collapse to a single TF32 projection
		// (idempotent).
		if fast {
			for i, v := range x {
				ra[i] = float32(tensor.RoundTF32Fast(v / (1 + math.Exp(-v))))
			}
		} else {
			for i, v := range x {
				ra[i] = float32(tensor.RoundTF32(v / (1 + math.Exp(-v))))
			}
		}
	default: // F32 tiles over F32 or F64 storage: one conversion does both
		for i, v := range x {
			ra[i] = float32(v / (1 + math.Exp(-v)))
		}
	}
}

// siluQuant64 is the F64-compute form: SiLU followed by the store rounding,
// exactly the value the unfused opSiLU leaves in its slab register.
func siluQuant64(dst []float64, x []float64, store tensor.Precision) {
	switch store {
	case tensor.F64:
		for i, v := range x {
			dst[i] = v / (1 + math.Exp(-v))
		}
	case tensor.F32:
		for i, v := range x {
			dst[i] = float64(float32(v / (1 + math.Exp(-v))))
		}
	default:
		for i, v := range x {
			dst[i] = tensor.RoundTF32(v / (1 + math.Exp(-v)))
		}
	}
}

// forward executes one op record. Each case mirrors the arithmetic of the
// corresponding ad.Tape op exactly (same kernels, same rounding points), so
// replay matches the tape bit for bit.
func (p *Program) forward(o *op, in *Inputs) {
	switch o.kind {
	case opNorm:
		x := p.fwdOf(o.x)
		y := p.fwdOf(o.out)
		for i := 0; i < o.z; i++ {
			r0, r1, r2 := x[3*i], x[3*i+1], x[3*i+2]
			y[i] = math.Sqrt(r0*r0 + r1*r1 + r2*r2)
		}

	case opPolyCutoff:
		r := p.fwdOf(o.x)
		y := p.fwdOf(o.out) // pre-zeroed
		for i := 0; i < o.z; i++ {
			x := r[i] / in.Cut[i]
			if x >= 1 {
				continue
			}
			xp := math.Pow(x, o.fp)
			y[i] = 1 - o.c1*xp + o.c2*xp*x - o.c3*xp*x*x
		}
		quant(y, p.store)

	case opBessel:
		r := p.fwdOf(o.x)
		y := p.fwdOf(o.out)
		for i := 0; i < o.z; i++ {
			rv := r[i]
			rc := in.Cut[i]
			pref := math.Sqrt(2/rc) / rv
			for n := 1; n <= o.nb; n++ {
				y[i*o.nb+n-1] = pref * math.Sin(float64(n)*math.Pi*rv/rc)
			}
		}
		quant(y, p.store)

	case opSphHarm:
		x := p.fwdOf(o.x)
		y := p.fwdOf(o.out)
		gtab := p.fwdOf(o.y) // analytic gradient table [Z, dim*3]
		dim := o.c
		buf := p.sphBuf[:dim]
		gbuf := p.sphGBuf[:dim]
		for i := 0; i < o.z; i++ {
			r := [3]float64{x[3*i], x[3*i+1], x[3*i+2]}
			o3.SphHarmGrad(o.lmax, r, buf, gbuf)
			row := gtab[i*dim*3 : (i+1)*dim*3]
			for c, g := range gbuf {
				row[3*c] = g[0]
				row[3*c+1] = g[1]
				row[3*c+2] = g[2]
			}
			copy(y[i*dim:(i+1)*dim], buf)
		}
		quant(y, p.store)

	case opMulBroadcast:
		x := p.fwdOf(o.x)
		s := p.fwdOf(o.y)
		y := p.fwdOf(o.out)
		c := o.c
		switch p.store {
		case tensor.F64:
			for r := 0; r < o.rows; r++ {
				sv := s[r]
				for j := 0; j < c; j++ {
					y[r*c+j] = x[r*c+j] * sv
				}
			}
		case tensor.F32:
			for r := 0; r < o.rows; r++ {
				sv := s[r]
				for j := 0; j < c; j++ {
					y[r*c+j] = float64(float32(x[r*c+j] * sv))
				}
			}
		default:
			for r := 0; r < o.rows; r++ {
				sv := s[r]
				for j := 0; j < c; j++ {
					y[r*c+j] = tensor.RoundTF32(x[r*c+j] * sv)
				}
			}
		}

	case opConcat2:
		a := p.fwdOf(o.x)
		bb := p.fwdOf(o.y)
		y := p.fwdOf(o.out)
		ca, cb := o.ca, o.cb
		tot := ca + cb
		for i := 0; i < o.rows; i++ {
			copy(y[i*tot:i*tot+ca], a[i*ca:(i+1)*ca])
			copy(y[i*tot+ca:(i+1)*tot], bb[i*cb:(i+1)*cb])
		}

	case opLinear:
		y := p.fwdOf(o.out)
		switch p.compute {
		case tensor.F64:
			switch {
			case p.refKernels || o.pw64 == nil:
				tensor.MatMulTInto(o.outT, o.xT, o.wT, tensor.F64)
			case o.fuse64:
				// Tile-fused SiLU→Linear: activate tileRows rows of the SiLU
				// input at a time into the hot buffer and run them at full
				// register-tile height. Per-row results are independent, so
				// tiling doesn't change any output bit.
				x := p.fwdOf(o.sx)
				for i0 := 0; i0 < o.m; i0 += tileRows {
					rows := o.m - i0
					if rows > tileRows {
						rows = tileRows
					}
					buf := p.tile64[:rows*o.k]
					siluQuant64(buf, x[i0*o.k:(i0+rows)*o.k], p.store)
					kern.MatMulTPacked64Rows(y, buf, o.pw64, i0, rows, o.k, o.n)
				}
			default:
				kern.MatMulTPacked64(y, p.fwdOf(o.x), o.pw64, o.m, o.k, o.n)
			}
		default:
			switch {
			case p.refKernels || o.pw == nil:
				ra := p.f32a[:o.m*o.k]
				if !o.fused { // fused: the preceding SiLU already filled ra
					tensor.RoundSliceTo(ra, p.fwdOf(o.x), p.compute)
				}
				tensor.MatMulTRounded(y, ra, o.rw, o.m, o.k, o.n)
			case o.fused:
				// Same tile streaming as the F64 branch, with the fused pair's
				// store-then-compute rounding applied per tile (identical
				// per-element value chain to the whole-slab fill).
				x := p.fwdOf(o.sx)
				for i0 := 0; i0 < o.m; i0 += tileRows {
					rows := o.m - i0
					if rows > tileRows {
						rows = tileRows
					}
					buf := p.f32a[:rows*o.k]
					siluRound32(buf, x[i0*o.k:(i0+rows)*o.k], p.compute, p.store, true)
					kern.MatMulTPacked32Rows(y, buf, o.pw, i0, rows, o.k, o.n)
				}
			default:
				ra := p.f32a[:o.m*o.k]
				tensor.RoundSliceToFast(ra, p.fwdOf(o.x), p.compute)
				kern.MatMulTPacked32(y, ra, o.pw, o.m, o.k, o.n)
			}
		}
		if o.bias != nil {
			// Bias add fused with the store rounding in one pass: the tape's
			// unrounded add followed by a quantize sweep rounds the same sums.
			n := o.n
			switch p.store {
			case tensor.F64:
				for i := 0; i < o.m; i++ {
					row := y[i*n : (i+1)*n]
					for j, bv := range o.bias {
						row[j] += bv
					}
				}
			case tensor.F32:
				for i := 0; i < o.m; i++ {
					row := y[i*n : (i+1)*n]
					for j, bv := range o.bias {
						row[j] = float64(float32(row[j] + bv))
					}
				}
			default:
				for i := 0; i < o.m; i++ {
					row := y[i*n : (i+1)*n]
					for j, bv := range o.bias {
						row[j] = tensor.RoundTF32(row[j] + bv)
					}
				}
			}
		} else if !o.noQuant {
			quant(y, p.store)
		}

	case opSiLU:
		x := p.fwdOf(o.x)
		if o.fuse64 && !p.refKernels {
			// The following linear streams this activation through its row
			// tiles; nothing to do here.
			return
		}
		if o.fused {
			if !p.refKernels {
				// Tile-streamed by the following linear.
				return
			}
			// Reference form of the fusion: emit the store-rounded then
			// tile-rounded float32 operands for the whole slab at once.
			siluRound32(p.f32a[:len(x)], x, p.compute, p.store, false)
			return
		}
		y := p.fwdOf(o.out)
		for i, v := range x {
			y[i] = v / (1 + math.Exp(-v))
		}
		quant(y, p.store)

	case opOuterMul:
		s := p.fwdOf(o.x)
		yv := p.fwdOf(o.y)
		out := p.fwdOf(o.out)
		z, u, c := o.z, o.u, o.c
		for zi := 0; zi < z; zi++ {
			yRow := yv[zi*c : (zi+1)*c]
			for ui := 0; ui < u; ui++ {
				sv := s[zi*u+ui]
				dst := out[(zi*u+ui)*c : (zi*u+ui+1)*c]
				switch p.store {
				case tensor.F64:
					for j, v := range yRow {
						dst[j] = sv * v
					}
				case tensor.F32:
					for j, v := range yRow {
						dst[j] = float64(float32(sv * v))
					}
				default:
					for j, v := range yRow {
						dst[j] = tensor.RoundTF32(sv * v)
					}
				}
			}
		}

	case opEnvSum:
		w := p.fwdOf(o.x)
		yv := p.fwdOf(o.y)
		out := p.fwdOf(o.out) // pre-zeroed
		z, u, c := o.z, o.u, o.c
		for zi := 0; zi < z; zi++ {
			i := in.I[zi]
			yRow := yv[zi*c : (zi+1)*c]
			for ui := 0; ui < u; ui++ {
				wv := o.alpha * w[zi*u+ui]
				dst := out[(i*u+ui)*c : (i*u+ui+1)*c]
				for j, v := range yRow {
					dst[j] += wv * v
				}
			}
		}
		quant(out, p.store)

	case opGather:
		x := p.fwdOf(o.x)
		y := p.fwdOf(o.out)
		rl := o.c
		for zi, i := range in.I {
			copy(y[zi*rl:(zi+1)*rl], x[i*rl:(i+1)*rl])
		}

	case opTP:
		out := p.fwdOf(o.out)
		if p.compute == tensor.F64 {
			if !p.refKernels && in.FusedS != nil {
				// Batched over BBLK pair-channel blocks per table sweep; the
				// stable C-sort keeps every accumulator's addend order.
				o3.ContractEntriesBlocked(out, p.fwdOf(o.x), p.fwdOf(o.y),
					o.zu, o.w1, o.w2, o.w3, in.FusedS[o.layer])
			} else {
				// Pre-zeroed: the F64 contraction accumulates in place.
				o3.ContractEntries(out, p.fwdOf(o.x), p.fwdOf(o.y),
					o.zu, o.w1, o.w2, o.w3, in.Fused[o.layer], tensor.F64)
			}
		} else {
			if !p.refKernels && in.Fused32S != nil {
				o3.ContractEntries32Blocked(out, p.fwdOf(o.x), p.fwdOf(o.y),
					o.zu, o.w1, o.w2, o.w3, in.Fused32S[o.layer], p.compute == tensor.TF32)
			} else {
				// Fully overwrites each block (no pre-zero), packed weights.
				o3.ContractEntries32(out, p.fwdOf(o.x), p.fwdOf(o.y),
					o.zu, o.w1, o.w2, o.w3, in.Fused32[o.layer], p.compute == tensor.TF32)
			}
		}
		if !o.noQuant {
			quant(out, p.store)
		}

	case opSlice:
		x := p.fwdOf(o.x)
		y := p.fwdOf(o.out)
		for r := 0; r < o.rows; r++ {
			copy(y[r*o.c:(r+1)*o.c], x[r*o.last+o.lo:r*o.last+o.lo+o.c])
		}

	case opAdd:
		a := p.fwdOf(o.x)
		bb := p.fwdOf(o.y)
		y := p.fwdOf(o.out)
		switch p.store {
		case tensor.F64:
			for i := range y {
				y[i] = a[i] + bb[i]
			}
		case tensor.F32:
			for i := range y {
				y[i] = float64(float32(a[i] + bb[i]))
			}
		default:
			for i := range y {
				y[i] = tensor.RoundTF32(a[i] + bb[i])
			}
		}

	case opScale:
		x := p.fwdOf(o.x)
		y := p.fwdOf(o.out)
		switch p.store {
		case tensor.F64:
			for i, v := range x {
				y[i] = v * o.alpha
			}
		case tensor.F32:
			for i, v := range x {
				y[i] = float64(float32(v * o.alpha))
			}
		default:
			for i, v := range x {
				y[i] = tensor.RoundTF32(v * o.alpha)
			}
		}
		if o.finalQ {
			quant(y, p.final)
		}

	case opWeightedSum:
		x := p.fwdOf(o.x)
		s := 0.0
		for _, v := range x {
			s += in.Scale * v
		}
		p.slab[o.out.Off] = s
	}
}

// backward runs one op record's adjoint, mirroring the pooled backward ops
// of ad/backops.go with the frozen-weight branches removed. Gradients
// accumulate in float64, exactly like the tape.
func (p *Program) backward(o *op, in *Inputs) {
	switch o.kind {
	case opNorm:
		x := p.fwdOf(o.x)
		y := p.fwdOf(o.out)
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		for i := 0; i < o.z; i++ {
			d := y[i]
			if d == 0 {
				continue
			}
			gv := g[i] / d
			gx[3*i] += gv * x[3*i]
			gx[3*i+1] += gv * x[3*i+1]
			gx[3*i+2] += gv * x[3*i+2]
		}

	case opPolyCutoff:
		r := p.fwdOf(o.x)
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		for i := 0; i < o.z; i++ {
			rc := in.Cut[i]
			x := r[i] / rc
			if x >= 1 {
				continue
			}
			xpm := math.Pow(x, o.fp-1)
			df := (-o.c1*o.fp*xpm + o.c2*(o.fp+1)*xpm*x - o.c3*(o.fp+2)*xpm*x*x) / rc
			gx[i] += g[i] * df
		}

	case opBessel:
		r := p.fwdOf(o.x)
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		for i := 0; i < o.z; i++ {
			rv := r[i]
			rc := in.Cut[i]
			pref := math.Sqrt(2 / rc)
			acc := 0.0
			for n := 1; n <= o.nb; n++ {
				k := float64(n) * math.Pi / rc
				db := pref * (k*math.Cos(k*rv)/rv - math.Sin(k*rv)/(rv*rv))
				acc += g[i*o.nb+n-1] * db
			}
			gx[i] += acc
		}

	case opSphHarm:
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		gtab := p.fwdOf(o.y)
		dim := o.c
		for i := 0; i < o.z; i++ {
			gRow := gx[3*i : 3*i+3]
			vg := g[i*dim : (i+1)*dim]
			gi := gtab[i*dim*3 : (i+1)*dim*3]
			for c := 0; c < dim; c++ {
				gc := vg[c]
				if gc == 0 {
					continue
				}
				gRow[0] += gc * gi[3*c]
				gRow[1] += gc * gi[3*c+1]
				gRow[2] += gc * gi[3*c+2]
			}
		}

	case opMulBroadcast:
		x := p.fwdOf(o.x)
		s := p.fwdOf(o.y)
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		gs := p.gradOf(o.y)
		c := o.c
		for r := 0; r < o.rows; r++ {
			sv := s[r]
			for j := 0; j < c; j++ {
				gx[r*c+j] += g[r*c+j] * sv
			}
		}
		for r := 0; r < o.rows; r++ {
			acc := 0.0
			for j := 0; j < c; j++ {
				acc += g[r*c+j] * x[r*c+j]
			}
			gs[r] += acc
		}

	case opConcat2:
		g := p.gradOf(o.out)
		ca, cb := o.ca, o.cb
		tot := ca + cb
		if o.adiff {
			ga := p.gradOf(o.x)
			for i := 0; i < o.rows; i++ {
				src := g[i*tot : i*tot+ca]
				dst := ga[i*ca : (i+1)*ca]
				for j, gv := range src {
					dst[j] += gv
				}
			}
		}
		if o.bdiff {
			gb := p.gradOf(o.y)
			for i := 0; i < o.rows; i++ {
				src := g[i*tot+ca : (i+1)*tot]
				dst := gb[i*cb : (i+1)*cb]
				for j, gv := range src {
					dst[j] += gv
				}
			}
		}

	case opLinear:
		// gx += g W, mirroring linearOp's two-phase accumulate; when the
		// input has a single consumer, scrT aliases the gradient region and
		// the add pass (0 + s == s) is gone. The kern path shares each W row
		// across four gradient rows (bit-identical — see MatMulBlocked64).
		if !p.refKernels {
			kern.MatMulBlocked64(o.scrT.Data, o.goutT.Data, o.wT.Data, o.m, o.n, o.k)
		} else {
			tensor.MatMulInto(o.scrT, o.goutT, o.wT, tensor.F64)
		}
		if !o.direct {
			gx := p.gradOf(o.x)
			for i, v := range o.scrT.Data {
				gx[i] += v
			}
		}

	case opSiLU:
		x := p.fwdOf(o.x)
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		for i, xv := range x {
			s := 1 / (1 + math.Exp(-xv))
			gx[i] += g[i] * s * (1 + xv*(1-s))
		}

	case opOuterMul:
		s := p.fwdOf(o.x)
		yv := p.fwdOf(o.y)
		g := p.gradOf(o.out)
		gs := p.gradOf(o.x)
		gy := p.gradOf(o.y)
		z, u, c := o.z, o.u, o.c
		for zi := 0; zi < z; zi++ {
			yRow := yv[zi*c : (zi+1)*c]
			for ui := 0; ui < u; ui++ {
				acc := 0.0
				gb := g[(zi*u+ui)*c : (zi*u+ui+1)*c]
				for j, v := range yRow {
					acc += gb[j] * v
				}
				gs[zi*u+ui] += acc
			}
		}
		for zi := 0; zi < z; zi++ {
			gRow := gy[zi*c : (zi+1)*c]
			for ui := 0; ui < u; ui++ {
				sv := s[zi*u+ui]
				gb := g[(zi*u+ui)*c : (zi*u+ui+1)*c]
				for j := range gRow {
					gRow[j] += gb[j] * sv
				}
			}
		}

	case opEnvSum:
		w := p.fwdOf(o.x)
		yv := p.fwdOf(o.y)
		g := p.gradOf(o.out)
		gw := p.gradOf(o.x)
		gy := p.gradOf(o.y)
		z, u, c := o.z, o.u, o.c
		for zi := 0; zi < z; zi++ {
			i := in.I[zi]
			yRow := yv[zi*c : (zi+1)*c]
			for ui := 0; ui < u; ui++ {
				gb := g[(i*u+ui)*c : (i*u+ui+1)*c]
				acc := 0.0
				for j, v := range yRow {
					acc += gb[j] * v
				}
				gw[zi*u+ui] += o.alpha * acc
			}
			gyRow := gy[zi*c : (zi+1)*c]
			for ui := 0; ui < u; ui++ {
				wv := o.alpha * w[zi*u+ui]
				gb := g[(i*u+ui)*c : (i*u+ui+1)*c]
				for j := range gyRow {
					gyRow[j] += gb[j] * wv
				}
			}
		}

	case opGather:
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		rl := o.c
		for zi, i := range in.I {
			src := g[zi*rl : (zi+1)*rl]
			dst := gx[i*rl : (i+1)*rl]
			for j, gv := range src {
				dst[j] += gv
			}
		}

	case opTP:
		if !p.refKernels {
			// Batched over BBLK blocks per sweep of the same *unsorted*
			// path-major table the reference walks (the backward must not
			// sort — see BackwardFusedEntriesBlocked).
			o3.BackwardFusedEntriesBlocked(p.gradOf(o.x), p.gradOf(o.y),
				p.fwdOf(o.x), p.fwdOf(o.y), p.gradOf(o.out),
				o.zu, o.w1, o.w2, o.w3, in.Fused[o.layer])
		} else {
			o3.BackwardFusedEntries(p.gradOf(o.x), p.gradOf(o.y),
				p.fwdOf(o.x), p.fwdOf(o.y), p.gradOf(o.out),
				o.zu, o.w1, o.w2, o.w3, in.Fused[o.layer])
		}

	case opSlice:
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		for r := 0; r < o.rows; r++ {
			src := g[r*o.c : (r+1)*o.c]
			dst := gx[r*o.last+o.lo : r*o.last+o.lo+o.c]
			for j, gv := range src {
				dst[j] += gv
			}
		}

	case opAdd:
		g := p.gradOf(o.out)
		ga := p.gradOf(o.x)
		gb := p.gradOf(o.y)
		for i, gv := range g {
			ga[i] += gv
		}
		for i, gv := range g {
			gb[i] += gv
		}

	case opScale:
		g := p.gradOf(o.out)
		gx := p.gradOf(o.x)
		for i, gv := range g {
			gx[i] += gv * o.alpha
		}

	case opWeightedSum:
		// The root adjoint is seeded with exactly 1, so each pair energy's
		// gradient is 1*sigma — the same product the tape's weightedSumOp
		// accumulates.
		gx := p.gradOf(o.x)
		for i := range gx {
			gx[i] += in.Scale
		}
	}
}
