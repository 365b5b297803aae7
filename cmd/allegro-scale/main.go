// Command allegro-scale runs the Perlmutter-scale throughput model: strong
// scaling (Fig. 6), weak scaling (Fig. 7), and the tight-binding comparison
// (Table III) for arbitrary systems and node counts.
//
// The -overlap flag feeds a measured overlap fraction (for example the
// "overlap fraction" that allegro-md prints after a decomposed run with
// -overlap) into the analytic cluster model: the strong-scaling table then
// prints synchronous and overlapped step-time columns side by side, showing
// how much of the halo-exchange term hiding the communication recovers at
// scale.
//
// Usage:
//
//	allegro-scale -mode strong -system Capsid -max-nodes 1280
//	allegro-scale -mode strong -system all -overlap 0.9
//	allegro-scale -mode strong -atoms 5000000
//	allegro-scale -mode weak -atoms-per-node 100000
//
// The -transport-stats flag anchors the machine model's interconnect terms
// at measured links instead of the frozen Perlmutter constants: point it at
// the BENCH_transport.json a distributed run wrote (`allegro-md -transport
// tcp -bench-out ...`) and predictions use that fleet's worst measured
// latency and bandwidth.
//
//	allegro-scale -mode strong -atoms 1000000 -transport-stats BENCH_transport.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/perfmodel"
)

func main() {
	var (
		mode         = flag.String("mode", "strong", "strong | weak")
		system       = flag.String("system", "", "named system (DHFR, FactorIX, Cellulose, STMV, 10STMV, Capsid) or 'all'")
		atoms        = flag.Int("atoms", 0, "water system size (used when -system is empty)")
		atomsPerNode = flag.Int("atoms-per-node", 100_000, "weak scaling: atoms per node")
		maxNodes     = flag.Int("max-nodes", 1280, "largest node count")
		overlap      = flag.Float64("overlap", 0, "measured overlap fraction in [0,1]: hide that share of the halo exchange and print sync vs overlapped columns")
		statsPath    = flag.String("transport-stats", "", "BENCH_transport.json from a distributed run: calibrate link latency/bandwidth from its measured links")
	)
	flag.Parse()
	if *overlap < 0 || *overlap > 1 {
		log.Fatalf("-overlap must be in [0,1], got %g", *overlap)
	}
	m := cluster.Perlmutter()
	if *statsPath != "" {
		buf, err := os.ReadFile(*statsPath)
		if err != nil {
			log.Fatal(err)
		}
		var rep perfmodel.TransportReport
		if err := json.Unmarshal(buf, &rep); err != nil {
			log.Fatalf("decode %s: %v", *statsPath, err)
		}
		m = perfmodel.CalibrateMachineTransport(m, rep.Links)
		if m.LinkLatency > 0 || m.LinkBandwidth > 0 {
			fmt.Printf("interconnect calibrated from %s (%d links over %s): latency %.1f us, bandwidth %.2f MB/s\n",
				*statsPath, len(rep.Links), rep.Transport, m.LinkLatency*1e6, m.LinkBandwidth/1e6)
		} else {
			fmt.Printf("warning: %s carries no measured links; using frozen interconnect constants\n", *statsPath)
		}
	}
	switch *mode {
	case "strong":
		var workloads []cluster.Workload
		switch {
		case *system == "all":
			for _, s := range data.PaperSystems() {
				workloads = append(workloads, cluster.Biosystem(s.Name, s.Atoms))
			}
		case *system != "":
			found := false
			for _, s := range data.PaperSystems() {
				if s.Name == *system {
					workloads = append(workloads, cluster.Biosystem(s.Name, s.Atoms))
					found = true
				}
			}
			if !found {
				log.Fatalf("unknown system %q", *system)
			}
		case *atoms > 0:
			workloads = append(workloads, cluster.Water(fmt.Sprintf("water-%d", *atoms), *atoms))
		default:
			log.Fatal("need -system or -atoms")
		}
		for _, w := range workloads {
			printStrong(m, w, *maxNodes, *overlap)
		}
	case "weak":
		fmt.Printf("weak scaling: %d atoms/node\n", *atomsPerNode)
		fmt.Printf("%8s %10s %12s\n", "nodes", "steps/s", "efficiency")
		for _, p := range m.WeakScaling(*atomsPerNode, *maxNodes) {
			fmt.Printf("%8d %10.2f %11.1f%%\n", p.Nodes, p.StepsPerSec, p.WeakEffPct)
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// printStrong renders one strong-scaling sweep; with a nonzero overlap
// fraction, a synchronous (bulk-synchronous exchange) and an overlapped
// (communication-hiding pipeline) column are printed side by side.
func printStrong(m cluster.Machine, w cluster.Workload, maxNodes int, overlap float64) {
	fmt.Printf("strong scaling: %s (%d atoms)\n", w.Name, w.Atoms)
	if overlap <= 0 {
		fmt.Printf("%8s %12s %10s %10s\n", "nodes", "atoms/GPU", "steps/s", "ns/day")
		for _, p := range m.StrongScaling(w, maxNodes) {
			fmt.Printf("%8d %12.0f %10.2f %10.2f\n", p.Nodes, p.AtomsPerGPU, p.StepsPerSec, p.NsPerDay)
		}
		return
	}
	ov := m
	ov.Overlap = overlap
	// Both sweeps start at the same MinNodes (memory, not overlap, sets
	// the floor), so the rows zip one to one.
	syncPts := m.StrongScaling(w, maxNodes)
	ovPts := ov.StrongScaling(w, maxNodes)
	fmt.Printf("%8s %12s %12s %14s %10s %10s\n",
		"nodes", "atoms/GPU", "sync ms/step", "ovl ms/step", "steps/s", "ns/day")
	for i, p := range ovPts {
		fmt.Printf("%8d %12.0f %12.3f %14.3f %10.2f %10.2f\n",
			p.Nodes, p.AtomsPerGPU, 1e3/syncPts[i].StepsPerSec, 1e3/p.StepsPerSec,
			p.StepsPerSec, p.NsPerDay)
	}
}
