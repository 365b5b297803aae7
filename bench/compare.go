package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict of one (workload, metric) pair between two result files.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// compareRow is one line of the comparison.
type compareRow struct {
	Workload, Metric string
	MedianA, MedianB float64
	Change           float64 // share of A's median by which B is worse (negative: better)
	Spread           float64 // larger run-to-run spread of the two sides
	Bound            float64
	Verdict          verdict
}

// judge applies one bound: B is worse when its median is worse than A's by
// more than the bound; when it is not, but either side's own spread exceeds
// the bound, the pair cannot be told apart and is unresolved, not unchanged.
func judge(a, b []float64, better string, bound float64) compareRow {
	row := compareRow{MedianA: median(a), MedianB: median(b), Bound: bound}
	if row.MedianA != 0 {
		row.Change = (row.MedianB - row.MedianA) / row.MedianA
		if better == "higher" {
			row.Change = -row.Change
		}
	}
	row.Spread = spreadOf(a)
	if s := spreadOf(b); s > row.Spread {
		row.Spread = s
	}
	switch {
	case row.Change > bound:
		row.Verdict = verdictWorse
	case row.Spread > bound:
		row.Verdict = verdictUnresolved
	default:
		row.Verdict = verdictOK
	}
	return row
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// valuesOf collects one metric of one workload over a file's runs.
func valuesOf(rf *resultFile, workload, metric string) (vals []float64) {
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// failedShare is the share of a workload's operations that failed.
func failedShare(rf *resultFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range rf.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareSets judges every end-to-end metric of every workload and reports
// whether B may replace A: no metric worse, no larger share of failures.
func compareSets(bf *benchmarkFile, a, b *resultFile) (rows []compareRow, failures []string) {
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := valuesOf(a, w.Name, m.Name), valuesOf(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := judge(va, vb, m.Better, m.Bound)
			row.Workload, row.Metric = w.Name, m.Name
			rows = append(rows, row)
			if row.Verdict == verdictWorse {
				failures = append(failures, fmt.Sprintf("%s %s is %.1f%% worse (bound %.0f%%)", w.Name, m.Name, 100*row.Change, 100*m.Bound))
			}
		}
		if fa, fb := failedShare(a, w.Name), failedShare(b, w.Name); fb > fa {
			failures = append(failures, fmt.Sprintf("%s fails %.3g%% of its operations, was %.3g%%", w.Name, 100*fb, 100*fa))
		}
	}
	return rows, failures
}

func compareFiles(bf *benchmarkFile, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Machine != b.Machine {
		fmt.Printf("note: the two files were measured on different machines:\n  %+v\n  %+v\n", a.Machine, b.Machine)
	}
	if a.Trace || b.Trace {
		return comparePerLayer(bf, a, b)
	}
	rows, failures := compareSets(bf, a, b)
	fmt.Printf("%-16s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "B worse", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, 100*r.Change, 100*r.Spread, 100*r.Bound, r.Verdict)
	}
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d comparison(s) failed", len(failures))
	}
	return nil
}

// comparePerLayer prints the per-layer medians of two traced sets side by
// side. Per-layer metrics have no bound and get no verdict: they say where
// an end-to-end change came from, they do not decide whether it is one.
func comparePerLayer(bf *benchmarkFile, a, b *resultFile) error {
	if !a.Trace || !b.Trace {
		return fmt.Errorf("one file is a traced set and the other is not")
	}
	fmt.Printf("%-16s %-38s %14s %14s %9s %8s\n", "workload", "metric", "median A", "median B", "change", "spread")
	for _, w := range bf.Workloads {
		for _, m := range bf.PerLayer {
			va, vb := valuesOf(a, w.Name, m.Name), valuesOf(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) {
				continue
			}
			row := judge(va, vb, "lower", 0)
			fmt.Printf("%-16s %-38s %14.6g %14.6g %+8.1f%% %7.1f%%\n", w.Name, m.Name, row.MedianA, row.MedianB, 100*row.Change, 100*row.Spread)
		}
	}
	return nil
}
