// Command perfbench is the repository's benchmark. It runs one named
// workload — the Table I suite synthesised or read from stores, or the
// flowd link replaying a stored trace with or without checkpoints — for a
// fixed time, checks every run's output against a golden digest, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run) as one JSON line. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload table1-store --seed 0 --seconds 10 --trace 0
//	perfbench -emit-spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// repOut is what one repetition of a workload produced.
type repOut struct {
	digest    string
	packets   int64
	attempted int64
	failed    int64
	lagsMs    []float64 // interval-close lags (flowd workloads)
}

// bench is one workload bound to a seed and a work directory.
type bench interface {
	// goldenKey names the golden digest family (workloads that must render
	// identical output share one).
	goldenKey() string
	// setup builds the inputs the timed runs read.
	setup() error
	// rep is one timed run, start to complete result.
	rep() (repOut, error)
	// reference derives the output digest another way, for seeds without a
	// recorded golden.
	reference() (string, error)
	// traced returns the per-layer metrics, medians over the traced
	// repetitions made in seconds, and writes the last repetition's spans.
	traced(seconds float64, want, spanPath string) (map[string]float64, error)
	close()
}

// workload declares one named workload.
type workload struct {
	name   string
	why    string
	setups int // set-up samples per run; setup_s is their median
	batch  int // set-ups timed together in one sample (a sub-millisecond set-up needs many)
	make   func(seed int64, work string) bench
}

var workloads = []workload{
	{
		name:   "table1-synth",
		why:    "Table I and figures synthesised on the fly: serial per-trace synthesis and the reference checkpoint index sit on the critical path",
		setups: 25,
		batch:  1024,
		make: func(seed int64, work string) bench {
			return &suiteBench{name: "table1-synth", seed: seed}
		},
	},
	{
		name:   "table1-store",
		why:    "the same suite read from pre-generated stores: synthesis is bypassed, so flow, timeseries and core dominate",
		setups: 5,
		batch:  1,
		make: func(seed int64, work string) bench {
			return &suiteBench{name: "table1-store", stored: true, seed: seed, storeDir: filepath.Join(work, "stores")}
		},
	},
	{
		name:   "flowd-replay",
		why:    "one resident flowd link over a replayed store: state carried across intervals, no interval parallelism, close latency",
		setups: 25,
		batch:  1,
		make: func(seed int64, work string) bench {
			return &flowdBench{name: "flowd-replay", seed: seed,
				storePath: filepath.Join(work, "replay.fstore"), ckptDir: filepath.Join(work, "ckpt")}
		},
	},
}

// runSeconds is how long one run measures.
const runSeconds = 25

// spec is BENCHMARK.json.
type spec struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []metricDef      `json:"end_to_end"`
	PerLayer   []metricDef      `json:"per_layer"`
}

func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, map[string]any{"name": w.name, "why": w.why})
	}
	return s
}

// checkSpec refuses a spec the benchmark contract would refuse: bad or
// repeated names, bad units or bounds, or a why longer than one short line.
func checkSpec() error {
	if err := checkDefs(endToEnd, true); err != nil {
		return err
	}
	if err := checkDefs(perLayer, false); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if !validName(w.name) || seen[w.name] {
			return fmt.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 0, "input seed (the suite seed offset; the replay store's generator seed)")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed repetitions run")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for inputs and span files (inside the checkout)")
		emitSpec = flag.Bool("emit-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *emitSpec {
		if err := checkSpec(); err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", b)
		return
	}
	var def *workload
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fatal(fmt.Errorf("unknown -workload %q (one of %s)", *name, workloadNames()))
	}
	if !(*seconds > 0) {
		fatal(fmt.Errorf("-seconds must be > 0, got %g", *seconds))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}

	work := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	cleanup := func() { os.RemoveAll(work) }
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(2)
	}()

	b := def.make(*seed, work)
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(b, def, *seed, *seconds, filepath.Join(*workdir, "spans-"+def.name+".tsv"))
	} else {
		res, err = runUntraced(b, def, *seed, *seconds)
	}
	b.close()
	cleanup()
	if err != nil {
		fatal(err)
	}
	if err := res.write(os.Stdout); err != nil {
		fatal(err)
	}
	os.Exit(res.exitCode())
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// expected returns the digest the workload must produce for seed: the
// recorded golden, or else one derived by the workload's reference path.
func expected(b bench, seed int64) (want, how string, err error) {
	if g, ok := golden(b.goldenKey(), seed); ok {
		return g, "golden", nil
	}
	ref, err := b.reference()
	if err != nil {
		return "", "", fmt.Errorf("reference run: %w", err)
	}
	return ref, "reference", nil
}

// runUntraced sets up def.setups times, runs one warm-up repetition, then
// timed repetitions until seconds have passed, and checks every output.
func runUntraced(b bench, def *workload, seed int64, seconds float64) (result, error) {
	var setups []float64
	for i := 0; i < def.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < def.batch; j++ {
			if err := b.setup(); err != nil {
				return result{}, fmt.Errorf("setup: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(def.batch))
	}
	warm, err := b.rep()
	if err != nil {
		return result{}, fmt.Errorf("warm-up run: %w", err)
	}
	digests := []string{warm.digest}
	var samples []sample
	var packets []int64
	var lags []float64
	var attempted, failed int64
	start := time.Now()
	for len(samples) == 0 || time.Since(start).Seconds() < seconds {
		var out repOut
		s, err := measure(func() error {
			var err error
			out, err = b.rep()
			return err
		})
		if err != nil {
			return result{}, fmt.Errorf("run %d: %w", len(samples)+1, err)
		}
		samples = append(samples, s)
		packets = append(packets, out.packets)
		lags = append(lags, out.lagsMs...)
		attempted += out.attempted
		failed += out.failed
		digests = append(digests, out.digest)
	}
	want, how, err := expected(b, seed)
	if err != nil {
		return result{}, err
	}
	ok := digestsMatch(digests, want)

	var walls, rates, cpus, rss, allocs, steal []float64
	for _, i := range undisturbed(samples) {
		s := samples[i]
		walls = append(walls, s.wall)
		rates = append(rates, float64(packets[i])/s.wall)
		cpus = append(cpus, s.cpu)
		rss = append(rss, s.rssMB)
		allocs = append(allocs, s.allocMB)
		steal = append(steal, s.steal/s.wall)
	}
	res, err := newResult(endToEnd, map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"pkts_per_s":  median(rates),
		"cpu_s":       median(cpus),
		"peak_rss_mb": median(rss),
		"alloc_mb":    median(allocs),
	})
	if err != nil {
		return result{}, err
	}
	res.Correct, res.Attempted, res.Failed = ok, attempted, failed
	outputOK := 0
	if ok {
		outputOK = 1
	}
	fmt.Printf("perfbench: workload=%s seed=%d runs=%d setups=%d output_ok=%d (%s %s) failed_frac=%g\n",
		def.name, seed, len(samples), len(setups), outputOK, how, want, float64(failed)/float64(max(attempted, 1)))
	fmt.Printf("perfbench: setup_s min=%.6g median=%.6g max=%.6g\n", minOf(setups), median(setups), maxOf(setups))
	fmt.Printf("perfbench: medians over %d undisturbed runs: wall_s min=%.4f median=%.4f max=%.4f, steal %.1f%%..%.1f%% of a CPU\n",
		len(walls), minOf(walls), median(walls), maxOf(walls), 100*minOf(steal), 100*maxOf(steal))
	if len(lags) > 0 {
		p50, _ := percentile(lags, 0.5)
		line := fmt.Sprintf("perfbench: close_lag_p50_ms=%.4f", p50)
		if p99, err := percentile(lags, 0.99); err == nil {
			line += fmt.Sprintf(" close_lag_p99_ms=%.4f", p99)
		}
		fmt.Printf("%s samples=%d\n", line, len(lags))
	}
	if !ok {
		fmt.Printf("perfbench: output digests %s differ from %s\n", strings.Join(shortAll(digests), ","), short(want))
	}
	return res, nil
}

// runTraced sets up once and reports the per-layer metrics.
func runTraced(b bench, def *workload, seed int64, seconds float64, spanPath string) (result, error) {
	if err := b.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	want, _, err := expected(b, seed)
	if err != nil {
		return result{}, err
	}
	vals, err := b.traced(seconds, want, spanPath)
	if err != nil {
		return result{}, fmt.Errorf("traced run: %w", err)
	}
	res, err := newResult(perLayer, vals)
	if err != nil {
		return result{}, err
	}
	res.Attempted = 1
	fmt.Printf("perfbench: workload=%s seed=%d traced, spans in %s\n", def.name, seed, spanPath)
	return res, nil
}

// zeroLayerMetrics starts a traced repetition's metrics with every
// per-layer metric at 0 (layers the workload does not run stay 0).
func zeroLayerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// medianMetrics takes each metric's median over repetitions.
func medianMetrics(reps []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name := range reps[0] {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r[name])
		}
		out[name] = median(xs)
	}
	return out
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

func shortAll(ds []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, short(d))
		}
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
