package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/groundtruth"
	"repro/internal/neighbor"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// benchProcs is the GOMAXPROCS every workload runs at: no workload keeps
// more than two goroutines busy with compute, so two threads is the whole
// machine the benchmark asks for and the number is the same on a larger box.
const benchProcs = 2

// PCG stream constants: one per generated input, so the inputs of a seed are
// independent of each other and of the order they are built in.
const (
	streamModel    = 0xBE9C
	streamSolvent  = 0x501
	streamWater    = 0x3A7
	streamRequests = 0x5E7
)

var benchSpecies = []units.Species{units.H, units.C, units.N, units.O}

// newModel builds the model under test: DefaultConfig at the paper's
// F64/F32/TF32 operating point, weights drawn from the seed.
func newModel(seed uint64) (*core.Model, error) {
	cfg := core.DefaultConfig(benchSpecies)
	cfg.Precision = core.ProductionPrecision()
	return core.New(cfg, nil, rand.New(rand.NewPCG(seed, streamModel)))
}

// refModelOf returns an f64 model with the very same (float32-representable)
// weights as prod. Only the correctness checks evaluate it.
func refModelOf(prod *core.Model) (*core.Model, error) {
	cfg := prod.Cfg
	cfg.Precision = core.ExactPrecision()
	ref, err := core.New(cfg, nil, rand.New(rand.NewPCG(1, streamModel)))
	if err != nil {
		return nil, err
	}
	for _, p := range prod.Params.List() {
		dst := ref.Params.Get(p.Name)
		if dst == nil || len(dst.Data) != len(p.T.Data) {
			return nil, fmt.Errorf("reference model has no parameter %q of the same shape", p.Name)
		}
		copy(dst.Data, p.T.Data)
	}
	ref.Params.Bump()
	ref.EnergyScale = prod.EnergyScale
	copy(ref.EnergyShift, prod.EnergyShift)
	return ref, nil
}

// Sizes of the molecular-dynamics systems. The protein is the largest box
// that still gives 30 or more steps in a run on two cores (see README.md for
// the per-atom cost at 0.5k to 10k atoms, which is flat).
const (
	proteinResidues = 12
	proteinPadding  = 4.0 // A of water around the solute
	relaxSteps      = 40
	relaxMaxStep    = 0.05
	waterCells      = 5 // WaterBox(5,5,5): 375 atoms, about 190 per rank
)

// proteinSystem is the solvated helix both protein workloads run; the seed
// sets the water orientations, the atom count does not depend on it.
func proteinSystem(seed uint64) *atoms.System {
	sys := data.Solvate(data.ProteinChain(proteinResidues), proteinPadding, rand.New(rand.NewPCG(seed, streamSolvent)))
	data.Relax(groundtruth.New(), sys, relaxSteps, relaxMaxStep)
	return sys
}

// waterSystem is the small periodic box of the wire workload.
func waterSystem(seed uint64) *atoms.System {
	sys := data.WaterBox(rand.New(rand.NewPCG(seed, streamWater)), waterCells, waterCells, waterCells)
	data.Relax(groundtruth.New(), sys, relaxSteps, relaxMaxStep)
	return sys
}

// forceError compares forces and energy of the model under test with the
// f64 reference model evaluated at the same positions: RMS per-atom force
// error in meV/A and absolute energy error in meV/atom.
func forceError(ref *core.Model, sys *atoms.System, forces [][3]float64, energy float64) (rmseMeVA, energyMeVAtom float64) {
	probe := perfmodel.NewDriftProbe(ref)
	defer probe.Close()
	s := probe.Measure(sys, forces, energy)
	return 1e3 * s.RMSForceErrEvA, 1e3 * s.EnergyErrEvAtom
}

// exactPairs counts the ordered pairs inside the model's cutoffs (no skin,
// no padding) for the current positions.
func exactPairs(m *core.Model, sys *atoms.System) int {
	var b neighbor.Builder
	b.Workers = 1
	defer b.Close()
	var p neighbor.Pairs
	b.BuildInto(&p, sys, m.Cuts)
	return p.NumReal
}

// machineInfo is recorded in every result file so numbers from different
// boxes are never compared unknowingly.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	LLCBytes   int64  `json:"llc_bytes"`
}

func describeMachine() machineInfo {
	mi := machineInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: benchProcs,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		LLCBytes:   llcBytes(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				mi.GOAMD64 = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				mi.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	return mi
}

// llcBytes reads the size of the last-level cache from sysfs; 32 MiB when it
// cannot be read.
func llcBytes() int64 {
	best := int64(0)
	for idx := 0; idx < 8; idx++ {
		raw, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		best = 32 << 20
	}
	return best
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// releaseMemory collects the previous set-up's garbage and returns it to the
// operating system, so that every set-up of a run starts where a fresh
// process would and VmHWM is one instance's footprint, not three.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// mallocs returns the cumulative heap allocation count of the process.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
