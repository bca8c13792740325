package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
)

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "p99", "9lives", "trace.phase1.busy_s", "flow.partition.handoff_wait_s", "a-b.c_d", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "_wall", ".wall", "-wall", "wall s", "wall/s", "wall%", "wäll", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
	for _, ok := range []string{"s", "ms", "pkt/s", "1/s", "%", "count", "MB", "ratio"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "pkt per s", strings.Repeat("u", 17), "µs"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true, want false", bad)
		}
	}
	if err := checkSpec(); err != nil {
		t.Errorf("the benchmark's own spec: %v", err)
	}
	for name, defs := range map[string][]metricDef{
		"duplicate":   {{"a", "s", "lower", 0.1}, {"a", "s", "lower", 0.1}},
		"bad name":    {{"_a", "s", "lower", 0.1}},
		"bad unit":    {{"a", "", "lower", 0.1}},
		"bad better":  {{"a", "s", "smaller", 0.1}},
		"loose bound": {{"a", "s", "lower", 0.3}},
		"no bound":    {{"a", "s", "lower", 0}},
	} {
		if checkDefs(defs, true) == nil {
			t.Errorf("checkDefs accepted %s", name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("metric or workload counts outside the contract: %d per-layer, %d end-to-end, %d workloads",
			len(perLayer), len(endToEnd), len(workloads))
	}
}

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the definitions here.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with perfbench -emit-spec")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 over 999 samples accepted")
	}
	xs = append(xs, 1000)
	p99, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples: %v", err)
	}
	if p99 != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", p99)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 over 19 samples accepted (needs 20)")
	}
	if p50, err := percentile(xs[:20], 0.5); err != nil || p50 != 10 {
		t.Errorf("p50 of 1..20 = %g, %v; want 10", p50, err)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// TestPerturbedOutputFails: a report sequence that differs in one float bit
// digests differently, and a run holding that digest reports output_ok = 0
// and exits non-zero.
func TestPerturbedOutputFails(t *testing.T) {
	reports := []service.Report{
		{Index: 0, Flows: 120, Packets: 9000, MeasMean: 2.5e6, MeasVar: 1.25e11, MeasCoV: 0.14, Lambda: 98.7, FittedB: 1.9, FitOK: true},
		{Index: 1, Start: 10, Flows: 131, Packets: 9400, MeasMean: 2.6e6, MeasVar: 1.3e11, MeasCoV: 0.13, Predicted: 2.55e6, HasPrediction: true},
	}
	digest := func(rs []service.Report) string {
		d := newReportDigest()
		for _, r := range rs {
			d.add(r)
		}
		return d.sum()
	}
	want := digest(reports)
	perturbed := append([]service.Report(nil), reports...)
	perturbed[1].MeasVar = math.Nextafter(perturbed[1].MeasVar, math.Inf(1))
	got := digest(perturbed)
	if got == want {
		t.Fatal("a one-ulp change left the digest unchanged")
	}
	if !digestsMatch([]string{want, want}, want) {
		t.Fatal("identical digests rejected")
	}
	if digestsMatch([]string{want, got}, want) {
		t.Fatal("perturbed digest accepted")
	}
	res, err := newResult(endToEnd, map[string]float64{
		"setup_s": 1, "wall_s": 1, "pkts_per_s": 1, "cpu_s": 1, "peak_rss_mb": 1, "alloc_mb": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Attempted = 2
	if res.exitCode() != 0 {
		t.Fatal("a correct run exits non-zero")
	}
	res.Correct = digestsMatch([]string{want, got}, want)
	if res.exitCode() == 0 {
		t.Fatal("a run with perturbed output exits 0")
	}
}

// TestPerturbedGoldenFailsRun drives a whole untraced flowd-replay run
// against a corrupted golden digest.
func TestPerturbedGoldenFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	key := "flowd/0"
	saved := goldens[key]
	defer func() { goldens[key] = saved }()
	goldens[key] = strings.Repeat("0", 64)
	def := &workload{name: "flowd-replay", setups: 1, batch: 1}
	b := &flowdBench{name: def.name, seed: 0, storePath: filepath.Join(t.TempDir(), "replay.fstore")}
	defer b.close()
	res, err := runUntraced(b, def, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.exitCode() == 0 {
		t.Fatalf("run against a wrong golden: correct=%v exit=%d", res.Correct, res.exitCode())
	}
}

// TestTracedReplayMatchesGolden runs one traced flowd-replay repetition: the
// traced link, the directly driven pipeline with checkpoints and the layer
// rebuild must all reproduce the golden report sequence, and every
// per-layer metric must be present.
func TestTracedReplayMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	dir := t.TempDir()
	b := &flowdBench{name: "flowd-replay", seed: 7,
		storePath: filepath.Join(dir, "replay.fstore"), ckptDir: filepath.Join(dir, "ckpt")}
	defer b.close()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	want, ok := golden(b.goldenKey(), 7)
	if !ok {
		t.Fatal("no golden for the held-out seed")
	}
	vals, err := b.traced(0.01, want, filepath.Join(dir, "spans.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newResult(perLayer, vals); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"service.closes", "snapshot.saves", "flow.assemble.pkts", "store.read.pkts", "service.close_lag_p99_ms"} {
		if !(vals[name] > 0) {
			t.Errorf("%s = %g, want > 0", name, vals[name])
		}
	}
}

func TestUnattributedTripsOnDroppedSpan(t *testing.T) {
	ms := int64(1e6)
	build := func(drop string) *tracer {
		tr := newTracer("test")
		r := tr.role("worker")
		r.start, r.end = 0, 100*ms
		for _, s := range []struct {
			name       string
			depth      uint8
			start, end int64
		}{
			{"flow.stream.wait", 0, 0, 10 * ms},
			{"flow.assemble", 0, 10 * ms, 60 * ms},
			{"flow.flush", 0, 60 * ms, 90 * ms},
			{"core.pop", 1, 70 * ms, 80 * ms}, // a child: never counted against the gap
			{"core.kernel", 0, 90 * ms, 99 * ms},
		} {
			if s.name != drop {
				r.span(s.name, s.depth, 0, 0, s.start, s.end)
			}
		}
		return tr
	}
	gap, wall := build("").unattributed()
	if math.Abs(gap-0.001) > 1e-12 || math.Abs(wall-0.1) > 1e-12 || !unattributedOK(gap, wall) {
		t.Fatalf("complete spans: gap %g of %g, want 0.001 of 0.1 within bound", gap, wall)
	}
	if gap, wall := build("core.pop").unattributed(); !unattributedOK(gap, wall) {
		t.Fatal("dropping a child span tripped the bound")
	}
	for _, drop := range []string{"flow.stream.wait", "flow.assemble", "flow.flush", "core.kernel"} {
		if gap, wall := build(drop).unattributed(); unattributedOK(gap, wall) {
			t.Errorf("dropping %s left gap %g of %g within bound", drop, gap, wall)
		}
	}
	var nilTracer *tracer
	if r := nilTracer.role("x"); r != nil {
		t.Fatal("nil tracer opened a role")
	}
}
