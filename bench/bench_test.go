package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// The tail percentile is the highest whole one with at least ten samples
// beyond it, and the value reported has exactly that many beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, pct int }{{30, 66}, {40, 75}, {150, 93}, {600, 98}, {20, 50}, {100000, 99}} {
		pct, ok := tailPercentile(c.n)
		if !ok || pct != c.pct {
			t.Errorf("n=%d: percentile %d (ok %v), want %d", c.n, pct, ok, c.pct)
		}
	}
	if _, ok := tailPercentile(19); ok {
		t.Error("19 samples cannot leave ten beyond the median")
	}
	for _, n := range []int{20, 30, 40, 57, 150, 600, 1234} {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		v, pct := tailValue(sorted)
		beyond := 0
		for _, x := range sorted {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond it", n, pct, beyond)
		}
		if next, _ := tailPercentile(n); next != pct {
			t.Errorf("n=%d: tailValue used p%d, tailPercentile says p%d", n, pct, next)
		}
		if v < percentile(sorted, 0.5) {
			t.Errorf("n=%d: tail %g below the median", n, v)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the pipeline's spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([3.1, 2.9, 3.4], n=4) == [2.9, 3.1, 3.4]
	q1, q2, q3 = quartiles([]float64{3.1, 2.9, 3.4})
	if q1 != 2.9 || q2 != 3.1 || q3 != 3.4 {
		t.Errorf("three values: %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: %g %g %g", q1, q2, q3)
	}
	if s := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(s-1.0) > 1e-12 {
		t.Errorf("spread %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

// Self time is the span minus the union of its children: overlapping
// children count once, grandchildren belong to their parent, children are
// clipped to the span, and other tracks do not subtract.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "step", Track: 0, Parent: -1, Start: 0, End: 100},                         // 0
		{Name: "force", Track: 0, Parent: 0, Start: 10, End: 90},                         // 1
		{Name: "neighbor", Track: 0, Parent: 1, Start: 10, End: 30},                      // 2
		{Name: "evaluate", Track: 0, Parent: 1, Start: 25, End: 70},                      // 3 overlaps neighbor by 5
		{Name: "replay", Track: 0, Parent: 3, Start: 25, End: 60},                        // 4 grandchild of force
		{Name: "late", Track: 0, Parent: 1, Start: 85, End: 120},                         // 5 runs past force's end
		{Name: "recv_wait", Track: 1, Parent: 0, Start: 0, End: 100},                     // 6 other track
		{Name: "inside", Track: 0, Parent: 1, Start: 40, End: 50},                        // 7 wholly inside evaluate
		{Name: "empty", Track: 0, Parent: 1, Start: 80, End: 80},                         // 8 zero length
		{Name: "before", Track: 0, Parent: 3, Start: 0, End: 30},                         // 9 starts before its parent
		{Name: "orphan", Track: 0, Parent: 99, Start: 0, End: 7},                         // 10 parent out of range
		{Name: "step", Track: 0, Parent: -1, Start: 200, End: 260},                       // 11 childless root
		{Name: "kick", Track: 0, Parent: 11, Start: 300, End: 310},                       // 12 wholly outside its parent
		{Name: "send", Track: 0, Parent: 11, Start: 190, End: 205},                       // 13 begins before the parent
		{Name: "send", Track: 0, Parent: 11, Start: 203, End: 210},                       // 14 overlaps 13
		{Name: "synthetic", Track: 0, Parent: 11, Start: 250, End: 400, Synthetic: true}, // 15
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0:  20,      // 100 - force(80)
		1:  80 - 65, // children cover [10,70] and [85,90]
		2:  20,
		3:  45 - 35, // replay [25,60]; "before" clipped to [25,30], already covered
		4:  35,
		5:  35,
		6:  100,
		10: 7,
		11: 60 - 20, // sends cover [200,210], synthetic covers [250,260], kick none
	}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], w)
		}
	}
	for i, s := range self {
		if s < 0 {
			t.Errorf("span %d has negative self time %d", i, s)
		}
	}
	// Residual: self time of spans that have children, over the roots.
	got := residualFrac(spans, "step")
	wantResid := float64(20+15+10+40) / float64(100+60)
	if math.Abs(got-wantResid) > 1e-12 {
		t.Errorf("residual %g, want %g", got, wantResid)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	tr.op.Store(7)
	a := tr.begin(trackMain, "step", "md")
	b := tr.begin(trackMain, "force", "core")
	if tr.current(trackMain) != b {
		t.Fatal("innermost open span is not the last one begun")
	}
	tr.end(b)
	c := tr.begin(trackMain, "thermostat", "md")
	tr.end(c)
	tr.end(a)
	other := tr.begin(trackRank0, "recv_wait", "transport")
	tr.end(other)
	spans := tr.snapshot()
	if spans[b].Parent != a || spans[c].Parent != a || spans[a].Parent != -1 || spans[other].Parent != -1 {
		t.Errorf("parents: %d %d %d %d", spans[a].Parent, spans[b].Parent, spans[c].Parent, spans[other].Parent)
	}
	for _, s := range spans {
		if s.Op != 7 {
			t.Errorf("span %s carries op %d, want 7", s.Name, s.Op)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var nilTracer *tracer
	if nilTracer.enabled() {
		t.Error("a nil tracer must record nothing")
	}
}

// A request refused once counts as failed even when the retry succeeds, and
// a request that never succeeds stops retrying.
func TestFailureAccounting(t *testing.T) {
	busy := errors.New("429")
	isBusy := func(err error) bool { return errors.Is(err, busy) }

	calls := 0
	retries, failed, err := withRetry(func() error { calls++; return nil }, isBusy, 0)
	if retries != 0 || failed || err != nil || calls != 1 {
		t.Errorf("clean request: retries %d failed %v err %v calls %d", retries, failed, err, calls)
	}

	calls = 0
	retries, failed, err = withRetry(func() error {
		calls++
		if calls == 1 {
			return busy
		}
		return nil
	}, isBusy, 0)
	if retries != 1 || !failed || err != nil {
		t.Errorf("429 then success: retries %d failed %v err %v; must count as failed", retries, failed, err)
	}

	boom := errors.New("500")
	calls = 0
	retries, failed, err = withRetry(func() error { calls++; return boom }, isBusy, 0)
	if retries != 0 || !failed || !errors.Is(err, boom) || calls != 1 {
		t.Errorf("hard error: retries %d failed %v err %v calls %d", retries, failed, err, calls)
	}

	calls = 0
	start := time.Now()
	retries, failed, err = withRetry(func() error { calls++; return busy }, isBusy, 0)
	if retries != maxRetries || !failed || !errors.Is(err, busy) || calls != maxRetries+1 {
		t.Errorf("always busy: retries %d failed %v err %v calls %d", retries, failed, err, calls)
	}
	if time.Since(start) > time.Second {
		t.Error("retrying without a pause took over a second")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, table := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range table {
			if !validMetricName(d.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %q is defined twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %q: better is %q", d.Name, d.Better)
			}
			if d.Unit == "" || len(d.Unit) > 16 {
				t.Errorf("metric %q: unit %q", d.Name, d.Unit)
			}
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", "x%", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted as a metric name", bad)
		}
	}
	for _, w := range workloads {
		if !validMetricName(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q invalid or reused", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the program
// emits, with the same units and directions, and keep the contract's limits.
func TestManifestMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bf.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, listed []boundedMetric, table []metricDef, bounded bool) {
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(listed), len(table))
			return
		}
		for i, d := range table {
			m := listed[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s %s %s", kind, i, m, d.Name, d.Unit, d.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound of %s is %g, want (0, 0.25]", kind, m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: %s has a bound; per-layer metrics have none", kind, m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics, true)
	check("per_layer", bf.PerLayer, perLayerMetrics, false)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
}

// finalize refuses both a forgotten metric and an unknown one; notEntered
// fills a layer's metrics with zeros without touching measured ones.
func TestFinalize(t *testing.T) {
	values := map[string]float64{}
	for _, d := range endToEndMetrics {
		values[d.Name] = 1.5
	}
	got, err := finalize(values, endToEndMetrics)
	if err != nil || len(got) != len(endToEndMetrics) || got["setup_s"].Unit != "s" {
		t.Fatalf("complete set: %v %v", got, err)
	}
	delete(values, "op_ms_tail")
	if _, err := finalize(values, endToEndMetrics); err == nil {
		t.Error("a missing metric went unnoticed")
	}
	values["op_ms_tail"] = 1
	values["op_ms_p51"] = 1
	if _, err := finalize(values, endToEndMetrics); err == nil {
		t.Error("an unknown metric went unnoticed")
	}

	out := map[string]float64{"serve.rejected": 3}
	notEntered(out, "serve.", "transport.")
	if out["serve.rejected"] != 3 {
		t.Error("notEntered overwrote a measured value")
	}
	if v, ok := out["transport.tcp_rtt_us"]; !ok || v != 0 {
		t.Error("notEntered did not zero transport.tcp_rtt_us")
	}
	if _, ok := out["kern.roofline_frac"]; ok {
		t.Error("notEntered touched a layer it was not given")
	}
}

func runsOf(workload, metric string, vals ...float64) []runResult {
	var out []runResult
	for i, v := range vals {
		out = append(out, runResult{Workload: workload, Seed: uint64(i + 1), Correct: true, Attempted: 100,
			Metrics: map[string]metricValue{metric: {Value: v, Unit: "ms"}}})
	}
	return out
}

// The comparator: worse beyond the bound fails, a spread wider than the
// bound is unresolved rather than unchanged, "higher is better" flips the
// sign, and a larger share of failed operations fails by itself.
func TestCompareVerdicts(t *testing.T) {
	bf := &benchmarkFile{
		EndToEnd: []boundedMetric{
			{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.05},
			{Name: "atom_evals_per_s", Unit: "atom_evals/s", Better: "higher", Bound: 0.10},
		},
	}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})

	verdictOf := func(a, b []float64, metric string) verdict {
		fa := &resultFile{Runs: runsOf("w", metric, a...)}
		fb := &resultFile{Runs: runsOf("w", metric, b...)}
		rows, _ := compareSets(bf, fa, fb)
		if len(rows) != 1 {
			t.Fatalf("%d rows", len(rows))
		}
		return rows[0].Verdict
	}
	tight := []float64{100, 100.5, 99.5, 100.2, 99.8}
	if v := verdictOf(tight, []float64{103, 103.5, 102.5, 103.2, 102.8}, "op_ms_p50"); v != verdictOK {
		t.Errorf("+3%% inside a 5%% bound: %s", v)
	}
	if v := verdictOf(tight, []float64{107, 107.5, 106.5, 107.2, 106.8}, "op_ms_p50"); v != verdictWorse {
		t.Errorf("+7%% outside a 5%% bound: %s", v)
	}
	if v := verdictOf(tight, []float64{80, 80.5, 79.5, 80.2, 79.8}, "op_ms_p50"); v != verdictOK {
		t.Errorf("20%% faster: %s", v)
	}
	if v := verdictOf([]float64{100, 120, 85, 110, 92}, []float64{101, 118, 86, 111, 93}, "op_ms_p50"); v != verdictUnresolved {
		t.Errorf("spread far over the bound: %s", v)
	}
	if v := verdictOf(tight, []float64{85, 85.5, 84.5, 85.2, 84.8}, "atom_evals_per_s"); v != verdictWorse {
		t.Errorf("throughput down 15%% with a 10%% bound: %s", v)
	}
	if v := verdictOf(tight, []float64{115, 115.5, 114.5, 115.2, 114.8}, "atom_evals_per_s"); v != verdictOK {
		t.Errorf("throughput up 15%%: %s", v)
	}

	fa := &resultFile{Runs: runsOf("w", "op_ms_p50", tight...)}
	fb := &resultFile{Runs: runsOf("w", "op_ms_p50", tight...)}
	fb.Runs[0].Failed = 1
	if _, failures := compareSets(bf, fa, fb); len(failures) != 1 {
		t.Errorf("a new failed operation gave %d failures, want 1", len(failures))
	}
	if _, failures := compareSets(bf, fb, fa); len(failures) != 0 {
		t.Errorf("fewer failed operations gave %d failures, want 0", len(failures))
	}
}
