package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one metric the program emits. The tables below are the
// program's half of the contract with BENCHMARK.json: bench_test.go checks
// that the file lists exactly these names, units and directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	What   string // one line for -list and README.md
}

// endToEndMetrics are what a user of the system sees. One operation is one
// MD step or one served request.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", "workload start to the end of the warm-up operation: system build and relax, model, backend or fleet or daemon start, first force call with plan compile (median of the run's set-ups)"},
	{"op_ms_p50", "ms", "lower", "median wall time of one timed operation"},
	{"op_ms_tail", "ms", "lower", "highest whole percentile with at least 10 samples beyond it"},
	{"atom_evals_per_s", "atom_evals/s", "higher", "atoms summed over every force evaluation completed in the timed window, over its wall time"},
	{"peak_rss_mb", "MB", "lower", "VmHWM of the workload process after a fixed timed operation"},
}

// perLayerMetrics come from the traced run. A workload that does not enter
// a layer reports 0 for that layer's metrics.
var perLayerMetrics = []metricDef{
	{"kern.matmul32_gflops", "GFLOP/s", "higher", "MatMulTPacked32 at the widest MLP shape, 4096 rows"},
	{"kern.matmul64_gflops", "GFLOP/s", "higher", "MatMulTPacked64, same shape"},
	{"kern.matmul_bwd_gflops", "GFLOP/s", "higher", "MatMulBlocked64 (backward linear), same shape"},
	{"kern.flops_per_byte", "flop/B", "higher", "computed operations per byte of the float32 matmul (array sizes, no cache misses)"},
	{"kern.peak_gflops_measured", "GFLOP/s", "higher", "16 independent scalar float32 multiply-add chains, one thread"},
	{"kern.triad_gbps_measured", "GB/s", "higher", "STREAM triad, arrays of 4x the last-level cache, one thread"},
	{"kern.roofline_frac", "ratio", "higher", "matmul32 rate over min(peak, triad x flops_per_byte)"},

	{"o3.tp_fwd_ns_per_pair", "ns", "lower", "ContractEntries32Blocked on the model's layer-0 table"},
	{"o3.tp_bwd_ns_per_pair", "ns", "lower", "BackwardFusedEntriesBlocked on the same table"},

	{"plan.linear_fwd_ms", "ms", "lower", "forward matmuls per replay (KernelProfile)"},
	{"plan.linear_bwd_ms", "ms", "lower", "backward matmuls per replay"},
	{"plan.tp_fwd_ms", "ms", "lower", "forward tensor products per replay"},
	{"plan.tp_bwd_ms", "ms", "lower", "backward tensor products per replay"},
	{"plan.env_rows_ms", "ms", "lower", "environment scatter/gather rows per replay"},
	{"plan.radial_ms", "ms", "lower", "radial basis rows per replay"},
	{"plan.other_ms", "ms", "lower", "remaining ops per replay"},
	{"plan.replay_ms", "ms", "lower", "summed kernel time of one replay"},
	{"plan.first_call_ms", "ms", "lower", "first force call minus a steady one: plan compile and buffer growth"},

	{"neighbor.build_ms", "ms", "lower", "one serial cell-list build"},
	{"neighbor.pairs", "count", "lower", "ordered pairs inside the cutoffs at the start of the window"},
	{"neighbor.pairs_per_atom", "count", "lower", "pairs over atoms"},
	{"neighbor.build_ns_per_pair", "ns", "lower", "build time over pairs"},

	{"core.force_ms", "ms", "lower", "one serial force call, one worker"},
	{"core.us_per_pair", "us", "lower", "force call over real pairs"},
	{"core.pairs_per_s", "1/s", "higher", "real pairs over force call time"},
	{"core.assemble_ms", "ms", "lower", "EvaluatePairsInto minus replay: force assembly, ZBL, shifts"},
	{"core.allocs_per_call", "count", "lower", "heap allocations per steady force call"},
	{"core.workers2_speedup", "ratio", "higher", "one worker over two workers, serial backend (informational: bimodal at seed state)"},
	{"core.force_rmse_mev_a", "meV/A", "lower", "RMS force error against the f64 reference model"},
	{"core.energy_err_mev_atom", "meV/atom", "lower", "energy error against the f64 reference model"},

	{"md.step_self_ms", "ms", "lower", "step minus force: integrator, thermostat, observers"},
	{"md.step_self_frac", "ratio", "lower", "step self time over step time"},

	{"domain.steady_step_ms", "ms", "lower", "median step that reuses its lists"},
	{"domain.rebuild_step_ms", "ms", "lower", "median step that rebuilds lists, ghosts and plans"},
	{"domain.rebuilds", "count", "lower", "rebuilds in the count window"},
	{"domain.rebuild_share", "ratio", "lower", "time in rebuild steps over time in all steps"},
	{"domain.pair_work", "count", "lower", "Verlet pairs evaluated per step, all ranks"},
	{"domain.verlet_pair_overhead", "ratio", "lower", "pair_work over exact-cutoff pairs"},
	{"domain.interior_frac", "ratio", "higher", "pairs whose centre needs no ghost"},
	{"domain.ghosts_total", "count", "lower", "ghost atoms over all ranks at the last rebuild"},
	{"domain.fwd_bytes_per_step", "B", "lower", "ghost positions refreshed per step"},
	{"domain.rev_bytes_per_step", "B", "lower", "ghost force rows returned per step"},
	{"domain.exchange_wait_ms_per_step", "ms", "lower", "exposed wait for ghost positions"},
	{"domain.comm_wall_ms_per_step", "ms", "lower", "post-to-arrival wall of the exchange"},
	{"domain.overlap_frac", "ratio", "higher", "share of the exchange hidden behind compute"},
	{"domain.interior_ms_per_step", "ms", "lower", "slowest rank inside the interior block"},
	{"domain.frontier_ms_per_step", "ms", "lower", "slowest rank inside the frontier block"},
	{"domain.reduce_ms_per_step", "ms", "lower", "slowest rank inside the force reductions"},
	{"domain.dispatch_residual_ms", "ms", "lower", "steady force call minus its phase timers"},
	{"domain.migrations", "count", "lower", "ownership changes in the count window"},
	{"domain.allocs_per_step", "count", "lower", "heap allocations per step over the window"},
	{"domain.strong_eff_2", "ratio", "higher", "atom_evals/s on two ranks over twice the serial rate, same system"},

	{"transport.frames_per_step", "count", "lower", "frames sent by all endpoints, per step of the count window"},
	{"transport.bytes_per_step", "B", "lower", "encoded bytes sent by all endpoints, per step of the count window"},
	{"transport.bytes_per_atom_step", "B", "lower", "bytes_per_step over atoms"},
	{"transport.send_ms_per_step", "ms", "lower", "driver time inside Send"},
	{"transport.recv_wait_ms_per_step", "ms", "lower", "driver time inside Recv: the ranks computing"},
	{"transport.rank_recv_wait_ms_per_step", "ms", "lower", "mean rank time inside Recv: rank idle"},
	{"transport.encode_ns_per_byte", "ns", "lower", "AppendWire on a halo-sized frame"},
	{"transport.decode_ns_per_byte", "ns", "lower", "DecodeBody on the same frame"},
	{"transport.tcp_rtt_us", "us", "lower", "loopback TCP round trip of that frame"},
	{"transport.chan_rtt_us", "us", "lower", "in-process channel round trip of that frame"},
	{"transport.remote_over_local", "ratio", "lower", "wire step over in-process Runtime step, same system"},

	{"serve.http_self_ms_p50", "ms", "lower", "client span minus service span: HTTP and JSON"},
	{"serve.service_ms_p50", "ms", "lower", "typed API call: admission, queue, evaluation, response"},
	{"serve.req_per_s", "1/s", "higher", "completed requests over the window"},
	{"serve.rejected", "count", "lower", "admission rejections"},
	{"serve.retries", "count", "lower", "client retries after backpressure"},
	{"serve.registry_hit_frac", "ratio", "higher", "plan leases served from the shared pool"},
	{"serve.registry_compiles", "count", "lower", "plans compiled"},
	{"serve.shapes", "count", "lower", "bucketed shapes seen"},
	{"serve.pad_waste_frac", "ratio", "lower", "bucketed minus real pairs, over bucketed"},
	{"serve.resp_bytes_per_atom", "B", "lower", "response body bytes over atoms"},

	{"trace.overhead_frac", "ratio", "lower", "traced over untraced op_ms_p50, minus one"},
	{"trace.residual_frac", "ratio", "lower", "operation time no leaf span measured"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
	Run  func(cfg runConfig) (*runResult, error)
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is what one run of one workload is told.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	OutDir  string // Chrome traces go here
}

// runResult is one run of one workload: the contract's result line plus the
// workload name and seed, and free-form notes for the human-readable print.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info,omitempty"`
}

// notEntered sets every per-layer metric whose name has one of the prefixes
// to 0: the workload does not run that layer (or cannot see it from
// outside), which is itself what the ledger should say.
func notEntered(out map[string]float64, prefixes ...string) {
	for _, d := range perLayerMetrics {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				if _, dup := out[d.Name]; !dup {
					out[d.Name] = 0
				}
			}
		}
	}
}

// finalize turns the values a run produced into the metrics of its result,
// insisting that they are exactly the table's names: a metric the program
// forgot, or one the table does not know, is a bug and not a zero.
func finalize(values map[string]float64, table []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(table))
	var missing, extra []string
	for _, d := range table {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics do not match the table: missing %v, unknown %v", missing, extra)
	}
	return out, nil
}

// setEndToEnd fills a result's end-to-end metrics from the run's set-up
// times, per-operation wall times, throughput and resident set.
func (res *runResult) setEndToEnd(setups, opMs []float64, atomEvalsPerS, rssMB float64) (err error) {
	sorted := sortedCopy(opMs)
	tail, pct := tailValue(sorted)
	res.Info["tail_percentile"] = pct
	res.Info["setups_s"] = setups
	res.Metrics, err = finalize(map[string]float64{
		"setup_s":          median(setups),
		"op_ms_p50":        percentile(sorted, 0.5),
		"op_ms_tail":       tail,
		"atom_evals_per_s": atomEvalsPerS,
		"peak_rss_mb":      rssMB,
	}, endToEndMetrics)
	return err
}

// setPerLayer writes the run's Chrome trace and fills the result's per-layer
// metrics; a residual above 10% is a warning, not a failure.
func (res *runResult) setPerLayer(tr *tracer, outDir string, out map[string]float64) (err error) {
	path := filepath.Join(outDir, "trace-"+res.Workload+".json")
	if err := tr.writeChromeTrace(path); err != nil {
		return err
	}
	res.Info["trace_file"] = path
	if r := out["trace.residual_frac"]; r > 0.10 {
		res.Info["warning"] = fmt.Sprintf("%.0f%% of operation time is not measured by any leaf span", 100*r)
	}
	res.Metrics, err = finalize(out, perLayerMetrics)
	return err
}

// printMetrics writes every metric by name with its unit, in table order.
func printMetrics(res *runResult, table []metricDef) {
	for _, d := range table {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("  %-38s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}
