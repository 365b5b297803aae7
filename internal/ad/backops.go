package ad

import (
	"math"

	"repro/internal/o3"
	"repro/internal/tensor"
)

// backOp is the backward pass of one recorded operation. Ops are plain
// structs drawn from per-kind block pools on the tape instead of
// heap-allocated closures, so recording a graph allocates one block per
// opBlock ops of a kind rather than one closure per op.
type backOp interface{ run() }

// opBlock is the pool growth granularity.
const opBlock = 64

// opPool hands out pointer-stable pooled op structs.
type opPool[T any] struct {
	blocks [][]T
	used   int
}

func (p *opPool[T]) get() *T {
	blk, off := p.used/opBlock, p.used%opBlock
	if blk == len(p.blocks) {
		p.blocks = append(p.blocks, make([]T, opBlock))
	}
	p.used++
	return &p.blocks[blk][off]
}

// opPools groups one pool per op kind (a field of Tape).
type opPools struct {
	linear  opPool[linearOp]
	silu    opPool[siluOp]
	add     opPool[addOp]
	mul     opPool[mulOp]
	scale   opPool[scaleOp]
	concat  opPool[concatOp]
	slice   opPool[sliceLastOp]
	reshape opPool[reshapeOp]
	sum     opPool[sumAllOp]
	wsum    opPool[weightedSumOp]
	gather  opPool[gatherOp]
	scatter opPool[scatterOp]
	mulb    opPool[mulBroadcastOp]
	outer   opPool[outerMulOp]
	norm    opPool[normOp]
	sph     opPool[sphHarmOp]
	bessel  opPool[besselOp]
	polycut opPool[polyCutoffOp]
	envsum  opPool[envSumOp]
	tprod   opPool[tensorProdOp]
}

// --- dense ops (ops.go) ---

type linearOp struct {
	v, x, w, b  *Value
	n, in, out_ int
}

func (op *linearOp) run() {
	g := op.v.grad
	if op.x.req {
		// gX += g W
		gx := tensor.New(op.n, op.in)
		tensor.MatMulInto(gx, g, op.w.T, tensor.F64)
		op.x.ensureGrad().AddInPlace(gx, tensor.F64)
	}
	if op.w.req {
		// gW += g^T x
		gw := tensor.New(op.out_, op.in)
		tensor.MatMulTransAInto(gw, g, op.x.T)
		op.w.ensureGrad().AddInPlace(gw, tensor.F64)
	}
	if op.b != nil && op.b.req {
		gb := op.b.ensureGrad()
		for i := 0; i < op.n; i++ {
			row := g.Row(i)
			for j := 0; j < op.out_; j++ {
				gb.Data[j] += row[j]
			}
		}
	}
}

type siluOp struct{ v, x *Value }

func (op *siluOp) run() {
	if !op.x.req {
		return
	}
	gx := op.x.ensureGrad()
	for i, xv := range op.x.T.Data {
		s := 1 / (1 + math.Exp(-xv))
		gx.Data[i] += op.v.grad.Data[i] * s * (1 + xv*(1-s))
	}
}

type addOp struct{ v, a, b *Value }

func (op *addOp) run() {
	if op.a.req {
		op.a.ensureGrad().AddInPlace(op.v.grad, tensor.F64)
	}
	if op.b.req {
		op.b.ensureGrad().AddInPlace(op.v.grad, tensor.F64)
	}
}

type mulOp struct{ v, a, b *Value }

func (op *mulOp) run() {
	if op.a.req {
		ga := op.a.ensureGrad()
		for i := range ga.Data {
			ga.Data[i] += op.v.grad.Data[i] * op.b.T.Data[i]
		}
	}
	if op.b.req {
		gb := op.b.ensureGrad()
		for i := range gb.Data {
			gb.Data[i] += op.v.grad.Data[i] * op.a.T.Data[i]
		}
	}
}

type scaleOp struct {
	v, x *Value
	c    float64
}

func (op *scaleOp) run() {
	if !op.x.req {
		return
	}
	gx := op.x.ensureGrad()
	for i := range gx.Data {
		gx.Data[i] += op.v.grad.Data[i] * op.c
	}
}

type concatOp struct {
	v        *Value
	xs       []*Value // pooled storage, refilled per use
	n, total int
}

func (op *concatOp) run() {
	off := 0
	for _, x := range op.xs {
		c := x.T.Shape[1]
		if x.req {
			gx := x.ensureGrad()
			for i := 0; i < op.n; i++ {
				src := op.v.grad.Data[i*op.total+off : i*op.total+off+c]
				dst := gx.Row(i)
				for j, g := range src {
					dst[j] += g
				}
			}
		}
		off += c
	}
}

type sliceLastOp struct {
	v, x                   *Value
	rows, width, last, lo_ int
}

func (op *sliceLastOp) run() {
	if !op.x.req {
		return
	}
	gx := op.x.ensureGrad()
	for r := 0; r < op.rows; r++ {
		src := op.v.grad.Data[r*op.width : (r+1)*op.width]
		dst := gx.Data[r*op.last+op.lo_ : r*op.last+op.lo_+op.width]
		for j, g := range src {
			dst[j] += g
		}
	}
}

type reshapeOp struct{ v, x *Value }

func (op *reshapeOp) run() {
	if !op.x.req {
		return
	}
	gx := op.x.ensureGrad()
	for i := range gx.Data {
		gx.Data[i] += op.v.grad.Data[i]
	}
}

type sumAllOp struct{ v, x *Value }

func (op *sumAllOp) run() {
	if !op.x.req {
		return
	}
	g := op.v.grad.Data[0]
	gx := op.x.ensureGrad()
	for i := range gx.Data {
		gx.Data[i] += g
	}
}

type weightedSumOp struct {
	v, x *Value
	w    []float64
}

func (op *weightedSumOp) run() {
	if !op.x.req {
		return
	}
	g := op.v.grad.Data[0]
	gx := op.x.ensureGrad()
	for i := range gx.Data {
		gx.Data[i] += g * op.w[i]
	}
}

type gatherOp struct {
	v, x   *Value
	idx    []int
	rowLen int
}

func (op *gatherOp) run() {
	if !op.x.req {
		return
	}
	gx := op.x.ensureGrad()
	for z, i := range op.idx {
		src := op.v.grad.Data[z*op.rowLen : (z+1)*op.rowLen]
		dst := gx.Data[i*op.rowLen : (i+1)*op.rowLen]
		for j, g := range src {
			dst[j] += g
		}
	}
}

type scatterOp struct {
	v, x   *Value
	idx    []int
	rowLen int
}

func (op *scatterOp) run() {
	if !op.x.req {
		return
	}
	gx := op.x.ensureGrad()
	for z, i := range op.idx {
		src := op.v.grad.Data[i*op.rowLen : (i+1)*op.rowLen]
		dst := gx.Data[z*op.rowLen : (z+1)*op.rowLen]
		for j, g := range src {
			dst[j] += g
		}
	}
}

type mulBroadcastOp struct {
	v, x, s *Value
	rows, c int
}

func (op *mulBroadcastOp) run() {
	rows, c := op.rows, op.c
	if op.x.req {
		gx := op.x.ensureGrad()
		for r := 0; r < rows; r++ {
			sv := op.s.T.Data[r]
			for j := 0; j < c; j++ {
				gx.Data[r*c+j] += op.v.grad.Data[r*c+j] * sv
			}
		}
	}
	if op.s.req {
		gs := op.s.ensureGrad()
		for r := 0; r < rows; r++ {
			acc := 0.0
			for j := 0; j < c; j++ {
				acc += op.v.grad.Data[r*c+j] * op.x.T.Data[r*c+j]
			}
			gs.Data[r] += acc
		}
	}
}

type outerMulOp struct {
	v, s, y *Value
	z, u, c int
}

func (op *outerMulOp) run() {
	z, u, c := op.z, op.u, op.c
	if op.s.req {
		gs := op.s.ensureGrad()
		for zi := 0; zi < z; zi++ {
			yRow := op.y.T.Row(zi)
			for ui := 0; ui < u; ui++ {
				acc := 0.0
				g := op.v.grad.Data[(zi*u+ui)*c : (zi*u+ui+1)*c]
				for j, yv := range yRow {
					acc += g[j] * yv
				}
				gs.Data[zi*u+ui] += acc
			}
		}
	}
	if op.y.req {
		gy := op.y.ensureGrad()
		for zi := 0; zi < z; zi++ {
			gRow := gy.Row(zi)
			for ui := 0; ui < u; ui++ {
				sv := op.s.T.Data[zi*u+ui]
				g := op.v.grad.Data[(zi*u+ui)*c : (zi*u+ui+1)*c]
				for j := range gRow {
					gRow[j] += g[j] * sv
				}
			}
		}
	}
}

// --- geometric ops (geom_ops.go) ---

type normOp struct {
	v, rvec *Value
	z       int
}

func (op *normOp) run() {
	if !op.rvec.req {
		return
	}
	g := op.rvec.ensureGrad()
	for i := 0; i < op.z; i++ {
		r := op.rvec.T.Row(i)
		d := op.v.T.Data[i]
		if d == 0 {
			continue
		}
		gv := op.v.grad.Data[i] / d
		row := g.Row(i)
		row[0] += gv * r[0]
		row[1] += gv * r[1]
		row[2] += gv * r[2]
	}
}

type sphHarmOp struct {
	v, rvec *Value
	grads   *tensor.Tensor // [Z, dim*3] analytic gradient table (nil if !req)
	z, dim  int
}

func (op *sphHarmOp) run() {
	if !op.rvec.req {
		return
	}
	g := op.rvec.ensureGrad()
	for i := 0; i < op.z; i++ {
		gRow := g.Row(i)
		vg := op.v.grad.Row(i)
		gi := op.grads.Row(i)
		for c := 0; c < op.dim; c++ {
			gc := vg[c]
			if gc == 0 {
				continue
			}
			gRow[0] += gc * gi[3*c]
			gRow[1] += gc * gi[3*c+1]
			gRow[2] += gc * gi[3*c+2]
		}
	}
}

type besselOp struct {
	v, r  *Value
	rcuts []float64
	z, nb int
}

func (op *besselOp) run() {
	if !op.r.req {
		return
	}
	g := op.r.ensureGrad()
	for i := 0; i < op.z; i++ {
		rv := op.r.T.Data[i]
		rc := op.rcuts[i]
		pref := math.Sqrt(2 / rc)
		acc := 0.0
		for n := 1; n <= op.nb; n++ {
			k := float64(n) * math.Pi / rc
			// d/dr [pref*sin(k r)/r] = pref*(k*cos(k r)/r - sin(k r)/r^2)
			db := pref * (k*math.Cos(k*rv)/rv - math.Sin(k*rv)/(rv*rv))
			acc += op.v.grad.Data[i*op.nb+n-1] * db
		}
		g.Data[i] += acc
	}
}

type polyCutoffOp struct {
	v, r           *Value
	rcuts          []float64
	fp, c1, c2, c3 float64
	z              int
}

func (op *polyCutoffOp) run() {
	if !op.r.req {
		return
	}
	g := op.r.ensureGrad()
	for i := 0; i < op.z; i++ {
		rc := op.rcuts[i]
		x := op.r.T.Data[i] / rc
		if x >= 1 {
			continue
		}
		xpm := math.Pow(x, op.fp-1)
		df := (-op.c1*op.fp*xpm + op.c2*(op.fp+1)*xpm*x - op.c3*(op.fp+2)*xpm*x*x) / rc
		g.Data[i] += op.v.grad.Data[i] * df
	}
}

type envSumOp struct {
	v, w, y *Value
	center  []int
	scale   float64
	z, u, c int
}

func (op *envSumOp) run() {
	z, u, c := op.z, op.u, op.c
	for zi := 0; zi < z; zi++ {
		i := op.center[zi]
		yRow := op.y.T.Row(zi)
		if op.w.req {
			gw := op.w.ensureGrad()
			for ui := 0; ui < u; ui++ {
				g := op.v.grad.Data[(i*u+ui)*c : (i*u+ui+1)*c]
				acc := 0.0
				for j, yv := range yRow {
					acc += g[j] * yv
				}
				gw.Data[zi*u+ui] += op.scale * acc
			}
		}
		if op.y.req {
			gy := op.y.ensureGrad()
			gyRow := gy.Row(zi)
			for ui := 0; ui < u; ui++ {
				wv := op.scale * op.w.T.Data[zi*u+ui]
				g := op.v.grad.Data[(i*u+ui)*c : (i*u+ui+1)*c]
				for j := range gyRow {
					gyRow[j] += g[j] * wv
				}
			}
		}
	}
}

type tensorProdOp struct {
	v, x, y, weights *Value
	prod             *o3.TensorProduct
}

func (op *tensorProdOp) run() {
	gx := tensor.New(op.x.T.Shape...)
	gy := tensor.New(op.y.T.Shape...)
	gw := tensor.New(op.prod.NumPaths())
	op.prod.BackwardInto(op.x.T, op.y.T, op.v.grad, op.weights.T.Data, gx, gy, gw.Data)
	if op.x.req {
		op.x.ensureGrad().AddInPlace(gx, tensor.F64)
	}
	if op.y.req {
		op.y.ensureGrad().AddInPlace(gy, tensor.F64)
	}
	if op.weights.req {
		wg := op.weights.ensureGrad()
		for i, g := range gw.Data {
			wg.Data[i] += g
		}
	}
}
