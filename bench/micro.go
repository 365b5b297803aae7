package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/o3"
	"repro/internal/tensor/kern"
	"repro/internal/transport"
)

// The microbenchmarks time single kernels and single frames in isolation, on
// shapes taken from the model under test. They take about two seconds and
// are the same on every workload; a kernel or codec change must show here
// first and in a workload's end-to-end metric second.

// timeReps runs fn reps times and returns the median wall time of one call
// in nanoseconds.
func timeReps(reps int, fn func()) float64 {
	fn() // warm caches and grow buffers
	ns := make([]float64, reps)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0))
	}
	return median(ns)
}

// microAll runs the kernel microbenchmarks every traced run reports.
func microAll(m *core.Model, out map[string]float64) error {
	microKern(m, llcBytes(), out)
	return microO3(m, out)
}

// Shape of the matmul microbenchmarks: the model's widest MLP layer (the
// latent MLP's [latent+channels] -> hidden) over a 4096-row batch.
const gemmRows = 4096

func gemmShape(m *core.Model) (k, n int) {
	return m.Cfg.LatentDim + m.Cfg.NumChannels, m.Cfg.LatentHidden[0]
}

func microKern(m *core.Model, llc int64, out map[string]float64) {
	k, n := gemmShape(m)
	rows := gemmRows
	rng := rand.New(rand.NewPCG(7, 7))

	a32 := make([]float32, rows*k)
	a64 := make([]float64, rows*k)
	for i := range a32 {
		a64[i] = rng.NormFloat64()
		a32[i] = float32(a64[i])
	}
	w32 := make([]float32, n*k)
	w64 := make([]float64, n*k)
	for i := range w32 {
		w64[i] = rng.NormFloat64()
		w32[i] = float32(w64[i])
	}
	p32 := kern.PackPanelB32(w32, n, k)
	p64 := kern.PackPanelB64(w64, n, k)
	c := make([]float64, rows*n)
	flops := 2 * float64(rows) * float64(k) * float64(n)

	ns := timeReps(9, func() { kern.MatMulTPacked32(c, a32, p32, rows, k, n) })
	out["kern.matmul32_gflops"] = flops / ns
	ns = timeReps(9, func() { kern.MatMulTPacked64(c, a64, p64, rows, k, n) })
	out["kern.matmul64_gflops"] = flops / ns

	// Backward linear: gx[rows,k] = g[rows,n] * W[n,k].
	g := make([]float64, rows*n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	gx := make([]float64, rows*k)
	ns = timeReps(9, func() { kern.MatMulBlocked64(gx, g, w64, rows, n, k) })
	out["kern.matmul_bwd_gflops"] = flops / ns

	// Computed bytes of the float32 forward matmul: A and the packed panel
	// read once, C (float64) written once. Cache misses are not in it.
	bytes := float64(4*rows*k + 4*len(p32) + 8*rows*n)
	out["kern.flops_per_byte"] = flops / bytes

	out["kern.peak_gflops_measured"] = peakGflops()
	out["kern.triad_gbps_measured"] = triadGBps(llc)
	roof := out["kern.peak_gflops_measured"]
	if bw := out["kern.triad_gbps_measured"] * out["kern.flops_per_byte"]; bw < roof {
		roof = bw
	}
	out["kern.roofline_frac"] = out["kern.matmul32_gflops"] / roof
}

var sink float32

// peakGflops measures what one thread of this toolchain can retire: sixteen
// independent float32 multiply-add chains held in registers. Pure Go has no
// vector instructions, so this is the compute roof of the repo's kernels,
// not the chip's SIMD peak.
func peakGflops() float64 {
	const iters = 1 << 21
	ns := timeReps(5, func() {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32 = 1, 2, 3, 4, 5, 6, 7, 8
		var b0, b1, b2, b3, b4, b5, b6, b7 float32 = 8, 7, 6, 5, 4, 3, 2, 1
		m, c := float32(0.9999999), float32(1e-7)
		for i := 0; i < iters; i++ {
			a0 = a0*m + c
			a1 = a1*m + c
			a2 = a2*m + c
			a3 = a3*m + c
			a4 = a4*m + c
			a5 = a5*m + c
			a6 = a6*m + c
			a7 = a7*m + c
			b0 = b0*m + c
			b1 = b1*m + c
			b2 = b2*m + c
			b3 = b3*m + c
			b4 = b4*m + c
			b5 = b5*m + c
			b6 = b6*m + c
			b7 = b7*m + c
		}
		sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7
	})
	return 2 * 16 * iters / ns
}

// triadBytes is the size of each of the three triad arrays: four times the
// last-level cache, capped so the probe stays under 1 GiB in all.
func triadBytes(llc int64) int64 {
	b := 4 * llc
	if b > 320<<20 {
		b = 320 << 20
	}
	return b
}

// triadGBps is the STREAM triad a[i] = b[i] + s*c[i] on one thread, counted
// as three arrays moved per pass.
func triadGBps(llc int64) float64 {
	n := int(triadBytes(llc) / 8)
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = 1
		c[i] = 2
	}
	ns := timeReps(3, func() {
		s := 3.0
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
	})
	return 3 * 8 * float64(n) / ns
}

// tpPairs is the pair count of the tensor-product microbenchmarks.
const tpPairs = 4096

// microO3 times the blocked tensor-product contractions on the model's own
// first-layer table (the widest: spherical x spherical -> full irreps),
// folded, packed and sorted the way core does before it hands the table to
// the compiled plans.
func microO3(m *core.Model, out map[string]float64) error {
	sph := o3.SphericalIrreps(m.Cfg.LMax)
	full := o3.FullIrreps(m.Cfg.LMax)
	tp := o3.NewTensorProduct(sph, sph, full)
	wts := m.Params.Get("layer0.tp_weights")
	if wts == nil || len(wts.Data) != tp.NumPaths() {
		return fmt.Errorf("model has no layer0.tp_weights matching %d paths", tp.NumPaths())
	}
	entries := tp.FlattenInto(nil, wts.Data)
	sorted32 := o3.PackEntries32(nil, entries)
	o3.SortEntries32ByC(sorted32)

	w1, w2, w3 := tp.In1.Width, tp.In2.Width, tp.Out.Width
	zu := tpPairs * m.Cfg.NumChannels
	rng := rand.New(rand.NewPCG(9, 9))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	x, y, gOut := fill(zu*w1), fill(zu*w2), fill(zu*w3)
	res := make([]float64, zu*w3)
	gX, gY := make([]float64, zu*w1), make([]float64, zu*w2)

	ns := timeReps(9, func() { o3.ContractEntries32Blocked(res, x, y, zu, w1, w2, w3, sorted32, true) })
	out["o3.tp_fwd_ns_per_pair"] = ns / tpPairs
	ns = timeReps(9, func() { o3.BackwardFusedEntriesBlocked(gX, gY, x, y, gOut, zu, w1, w2, w3, entries) })
	out["o3.tp_bwd_ns_per_pair"] = ns / tpPairs
	return nil
}

// haloVecs is the payload of the codec and round-trip probes: the ghost
// positions one rank of the wire workload refreshes per step.
const haloVecs = 200

func microTransport(out map[string]float64) error {
	var f, g transport.Frame
	f.Reset(transport.KindGhostPos, 1, 1)
	vecs := f.EnsureVecs(haloVecs)
	for i := range vecs {
		vecs[i] = [3]float64{float64(i), 0.5, -1.25}
	}
	// One frame encodes in well under a microsecond: time batches of them.
	const batch = 256
	var buf []byte
	ns := timeReps(21, func() {
		for i := 0; i < batch; i++ {
			buf = f.AppendWire(buf[:0])
		}
	})
	out["transport.encode_ns_per_byte"] = ns / batch / float64(len(buf))
	var decErr error
	ns = timeReps(21, func() {
		for i := 0; i < batch; i++ {
			if err := g.DecodeBody(buf[4:]); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return decErr
	}
	out["transport.decode_ns_per_byte"] = ns / batch / float64(len(buf))

	rtt, err := pingPong(transport.NewChan(2), &f)
	if err != nil {
		return fmt.Errorf("chan round trip: %w", err)
	}
	out["transport.chan_rtt_us"] = rtt / 1e3
	tcp, err := loopbackTCP(2)
	if err != nil {
		return err
	}
	rtt, err = pingPong(tcp, &f)
	if err != nil {
		return fmt.Errorf("tcp round trip: %w", err)
	}
	out["transport.tcp_rtt_us"] = rtt / 1e3
	return nil
}

// pingPong bounces a copy of f between endpoints 0 and 1 of tr and returns
// the median round-trip time in nanoseconds. It closes tr.
func pingPong(tr transport.Transport, f *transport.Frame) (float64, error) {
	defer tr.Close()
	ep0, err := tr.Endpoint(0)
	if err != nil {
		return 0, err
	}
	ep1, err := tr.Endpoint(1)
	if err != nil {
		return 0, err
	}
	const rounds = 300
	echoErr := make(chan error, 1)
	go func() {
		var in transport.Frame
		for i := 0; i < rounds; {
			if err := ep1.Recv(&in); err != nil {
				echoErr <- err
				return
			}
			if in.Kind != transport.KindGhostPos {
				continue // transport hellos
			}
			in.Dst = 0
			if err := ep1.Send(&in); err != nil {
				echoErr <- err
				return
			}
			i++
		}
		echoErr <- nil
	}()
	var ping, pong transport.Frame
	transport.CopyFrame(&ping, f)
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		ping.Dst = 1
		t0 := time.Now()
		if err := ep0.Send(&ping); err != nil {
			return 0, err
		}
		for {
			if err := ep0.Recv(&pong); err != nil {
				return 0, err
			}
			if pong.Kind == transport.KindGhostPos {
				break
			}
		}
		rtts = append(rtts, float64(time.Since(t0)))
	}
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// loopbackTCP builds an n-rank TCP world inside this process, one transport
// per rank on 127.0.0.1 with kernel-chosen ports, composed the way
// cmd/allegro-md composes a fleet from its -hosts list.
func loopbackTCP(n int) (transport.Transport, error) {
	listeners := make([]net.Listener, n)
	hosts := make([]string, n)
	for r := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:r] {
				l.Close()
			}
			return nil, fmt.Errorf("loopback listener: %w", err)
		}
		listeners[r] = ln
		hosts[r] = ln.Addr().String()
	}
	members := make([]transport.Transport, n)
	for r := range members {
		tr, err := transport.NewTCP(transport.TCPConfig{Rank: r, Hosts: hosts, Listener: listeners[r]})
		if err != nil {
			for _, m := range members[:r] {
				m.Close()
			}
			for _, l := range listeners[r:] {
				l.Close()
			}
			return nil, err
		}
		members[r] = tr
	}
	return transport.NewGroup(members...), nil
}
