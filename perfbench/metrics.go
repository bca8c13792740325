package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one reported metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the suite or of flowd sees, reported by
// every untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"pkts_per_s", "pkt/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"alloc_mb", "MB", "lower", 0.1},
}

// perLayer are the traced run's per-module metrics. Every traced run reports
// all of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"trace.phase1.busy_s", "s", "lower", 0},
	{"trace.phase1.flows", "count", "higher", 0},
	{"trace.synth.self_s", "s", "lower", 0},
	{"trace.synth.pkts", "count", "higher", 0},
	{"trace.synth.blocks", "count", "higher", 0},
	{"trace.ckindex.busy_s", "s", "lower", 0},
	{"trace.window.busy_s", "s", "lower", 0},
	{"trace.window.pkts", "count", "higher", 0},
	{"store.write.busy_s", "s", "lower", 0},
	{"store.write.bytes", "B", "lower", 0},
	{"store.read.self_s", "s", "lower", 0},
	{"store.read.bytes", "B", "higher", 0},
	{"store.read.pkts", "count", "higher", 0},
	{"store.window.busy_s", "s", "lower", 0},
	{"flow.partition.self_s", "s", "lower", 0},
	{"flow.partition.blocks", "count", "higher", 0},
	{"flow.partition.handoff_wait_s", "s", "lower", 0},
	{"flow.stream.wait_s", "s", "lower", 0},
	{"flow.assemble.busy_s", "s", "lower", 0},
	{"flow.assemble.pkts", "count", "higher", 0},
	{"flow.flush.busy_s", "s", "lower", 0},
	{"flow.flows", "count", "higher", 0},
	{"flow.discarded", "count", "higher", 0},
	{"flow.active.peak", "count", "lower", 0},
	{"timeseries.bin.busy_s", "s", "lower", 0},
	{"timeseries.stats.busy_s", "s", "lower", 0},
	{"core.pop.busy_s", "s", "lower", 0},
	{"core.pop.flows", "count", "higher", 0},
	{"core.kernel.busy_s", "s", "lower", 0},
	{"core.fit.busy_s", "s", "lower", 0},
	{"experiments.measure.busy_s", "s", "lower", 0},
	{"experiments.render.busy_s", "s", "lower", 0},
	{"experiments.intervals", "count", "higher", 0},
	{"experiments.w1.wall_s", "s", "lower", 0},
	{"service.source.self_s", "s", "lower", 0},
	{"service.queue.wait_s", "s", "lower", 0},
	{"service.add.busy_s", "s", "lower", 0},
	{"service.close.busy_s", "s", "lower", 0},
	{"service.closes", "count", "higher", 0},
	{"service.close_lag_p50_ms", "ms", "lower", 0},
	{"service.close_lag_p99_ms", "ms", "lower", 0},
	{"snapshot.encode.busy_s", "s", "lower", 0},
	{"snapshot.save.busy_s", "s", "lower", 0},
	{"snapshot.bytes", "B", "lower", 0},
	{"snapshot.saves", "count", "lower", 0},
	{"runtime.gc.cycles", "count", "lower", 0},
	{"runtime.gc.pause_s", "s", "lower", 0},
	{"traced.unattributed_s", "s", "lower", 0},
	{"traced.overhead", "ratio", "lower", 0},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal workload or metric name: a letter
// or digit, then at most 63 more letters, digits, '_', '.' or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal unit: 1 to 16 letters, digits,
// '_', '/', '%', '.' or '-'.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// checkDefs validates a metric list: legal, unique names and units, a known
// direction, and (for end-to-end metrics) a bound in (0, 0.25].
func checkDefs(defs []metricDef, bounded bool) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !validName(d.Name) {
			return fmt.Errorf("metric name %q breaks the name grammar", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !validUnit(d.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", d.Name, d.Better)
		}
		if bounded && !(d.Bound > 0 && d.Bound <= 0.25) {
			return fmt.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if !bounded && d.Bound != 0 {
			return fmt.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	return nil
}

// median returns the median of xs (NaN for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is noise, so percentile refuses it (p99 needs
// at least 1000 samples).
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, refusing
// when fewer than minTail samples would lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	need := int(math.Ceil(minTail/(1-p) - 1e-6))
	if len(xs) < need {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", p*100, need, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills a result with exactly the metrics of defs, taking values
// from vals; a metric missing from vals is an error (a silently absent
// metric would read as a regression-free run).
func newResult(defs []metricDef, vals map[string]float64) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite: %g", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// write prints the result as one JSON line.
func (r result) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// exitCode is the process status for a finished run: 0 only when every
// output check passed and no operation failed.
func (r result) exitCode() int {
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		return 1
	}
	return 0
}
