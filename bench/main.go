// Command bench is the repository's benchmark: four workloads, five
// end-to-end metrics each, and a traced per-layer ledger. BENCHMARK.json at
// the repository root names what it emits and the bound on every end-to-end
// metric; README.md in this directory says why each workload exists and how
// the layers' metrics should move the end-to-end ones.
//
//	bench -workload protein-serial -seed 1 -seconds 20 -trace 0
//	    one run of one workload; the last line of output is the result as
//	    one JSON object (-trace 1: the per-layer metrics and a Chrome trace)
//	bench [-runs N] [-trace 1] [-out FILE]
//	    every workload, each run in its own process, N seeds each
//	bench -list
//	    workloads and metrics
//	bench -compare A.json B.json
//	    apply BENCHMARK.json's bounds to two result files
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

var workloads = []workloadDef{
	{"protein-serial", "solvated helix, one worker: the single-threaded baseline where kernels, plans and the neighbor build are all of a step", proteinSerial.run},
	{"protein-ranks", "same system on 2 overlapped ranks with Verlet skin: ghost exchange, list reuse and rebuild steps carry the difference to protein-serial", proteinRanks.run},
	{"water-wire", "375 atoms on 2 rank servers over loopback TCP: the strong-scaling limit, where frames, sockets and the driver's wait are their largest share", waterWire.run},
	{"serve-mixed", "2 closed-loop HTTP clients, 80/15/5 molecules/water/trajectories: JSON, admission, bucketing and plan leases over churning shapes", runServe},
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// resultFile is what -out writes and -compare reads: every run of a set.
type resultFile struct {
	Schema  string      `json:"schema"`
	Claim   *string     `json:"claim"` // always null: the benchmark claims no gain
	Machine machineInfo `json:"machine"`
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
	Runs    []runResult `json:"runs"`
}

const resultSchema = "allegro-bench/1"

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	runs     int
	out      string
	traceDir string
	list     bool
	compare  bool
	manifest string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process (default: all, one process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input: weights, systems, velocities, request stream")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, per-layer metrics and a Chrome trace; 0: end-to-end metrics")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: runs per workload, seeds seed..seed+runs-1")
	flag.StringVar(&o.out, "out", "", "with no -workload: write every run to this result file")
	flag.StringVar(&o.traceDir, "trace-dir", "bench/out", "directory the Chrome traces are written to")
	flag.BoolVar(&o.list, "list", false, "list workloads and metrics, then exit")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	flag.StringVar(&o.manifest, "benchmark", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed is returned when a run completed but operations failed or
// outputs were wrong: the result is printed, the exit code is not 0.
var errFailed = errors.New("operations failed or outputs were wrong")

func run(o options, args []string) error {
	if o.list {
		printList()
		return nil
	}
	bf, err := readBenchmarkFile(o.manifest)
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(bf, args[0], args[1])
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	if o.workload != "" {
		return runOne(o.workload, runConfig{Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1, OutDir: o.traceDir})
	}
	return runAll(o)
}

// runOne runs one workload in this process and prints its metrics and, as
// the last line, the result object the pipeline reads.
func runOne(name string, cfg runConfig) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (see -list)", name)
	}
	runtime.GOMAXPROCS(benchProcs)
	res, err := w.Run(cfg)
	if err != nil {
		return err
	}
	table := endToEndMetrics
	if cfg.Trace {
		table = perLayerMetrics
	}
	fmt.Printf("%s seed %d: %d operations, %d failed\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	printMetrics(res, table)
	for _, k := range []string{"tail_percentile", "atoms", "responses_checked", "trace_file", "warning", "first_error", "check_error"} {
		if v, ok := res.Info[k]; ok {
			fmt.Printf("  %s: %v\n", k, v)
		}
	}
	if runtime.NumCPU() < benchProcs {
		fmt.Printf("  unresolved: %d CPU for %d busy goroutines; protein-ranks and water-wire timings are not meaningful\n", runtime.NumCPU(), benchProcs)
	}
	// The run with its workload, seed and notes, for runAll and -out; then, as
	// the last line, the four keys the pipeline's contract names.
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, line)
	if !res.Correct || res.Failed > 0 {
		return errFailed
	}
	return nil
}

// runAll runs every workload in a process of its own — a clean heap and a
// VmHWM per run — and collects the result lines.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultFile{Schema: resultSchema, Machine: describeMachine(), Seconds: o.seconds, Trace: o.trace == 1}
	failed := false
	for _, w := range workloads {
		for r := 0; r < o.runs; r++ {
			seed := o.seed + uint64(r)
			cmd := exec.Command(self,
				"-benchmark", o.manifest, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-trace-dir", o.traceDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			if len(lines) < 2 {
				return fmt.Errorf("%s seed %d printed no result: %v", w.Name, seed, err)
			}
			var res runResult
			if jerr := json.Unmarshal([]byte(lines[len(lines)-2]), &res); jerr != nil {
				return fmt.Errorf("%s seed %d printed no result (%v): %w", w.Name, seed, err, jerr)
			}
			fmt.Println(strings.Join(lines[:len(lines)-2], "\n"))
			failed = failed || err != nil
			rf.Runs = append(rf.Runs, res)
		}
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(&rf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", o.out)
	}
	if failed {
		return errFailed
	}
	return nil
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-16s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (every workload, -trace 0):")
	for _, d := range endToEndMetrics {
		fmt.Printf("  %-38s %-13s %-6s %s\n", d.Name, d.Unit, d.Better, d.What)
	}
	fmt.Println("per-layer metrics (-trace 1; 0 where a workload does not enter the layer):")
	for _, d := range perLayerMetrics {
		fmt.Printf("  %-38s %-13s %-6s %s\n", d.Name, d.Unit, d.Better, d.What)
	}
}
