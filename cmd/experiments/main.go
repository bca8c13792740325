// Command experiments regenerates the tables and figures of "A flow-based
// model for Internet backbone traffic" (Barakat et al., IMC 2002) on the
// scaled synthetic trace suite. `experiments -list` prints the experiment
// ids; each is named after the paper artefact it regenerates (table1 =
// Table I, fig9 = Figure 9, appA = §VII-A), and ablation-* ids are checks
// beyond the paper.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,fig9,fig10
//	experiments -run table2 -predsec 1800
//	experiments -link 20e6 -interval 60 -maxivl 4 -run fig9   # quick pass
//	experiments -store stores/ -run table1                    # measure tracegen -store output
//	experiments -shard 0/2 -shard-out s0.shard                # measure half the traces
//	experiments -shard-merge s0.shard,s1.shard -run all       # merge and render
//
// Sharding splits the suite's traces across processes (see
// scripts/shard_demo.sh); the merged output is byte-identical to a
// single-process run with the same flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"

	"repro/internal/experiments"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids (see -list)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		link    = flag.Float64("link", 100e6, "scaled link capacity in bit/s (paper: 622e6)")
		ivl     = flag.Float64("interval", 120, "analysis interval in seconds (paper: 1800)")
		perHour = flag.Float64("perhour", 2, "analysis intervals per paper trace hour")
		maxIvl  = flag.Int("maxivl", 0, "cap intervals per trace (0 = paper-proportional)")
		delta   = flag.Float64("delta", 0.2, "rate averaging interval Δ in seconds")
		predSec = flag.Float64("predsec", 1800, "prediction trace length for table2/fig14")
		seed    = flag.Int64("seed", 0, "suite seed offset")
		workers = flag.Int("workers", 0, "interval measurement workers, shared across traces (0 = GOMAXPROCS); output is identical at any count")
		genWork = flag.Int("genworkers", 1, "packet-synthesis workers per trace producer (<= 1 = serial); output is identical at any count")
		quiet   = flag.Bool("quiet", false, "summaries only, no per-point output")
		budget  = flag.Int64("membudget", 0, "cap resident bytes of in-flight measurement blocks (0 = unlimited); producers block when it fills")
		shed    = flag.Bool("shed", false, "with -membudget: drop intervals under memory pressure instead of blocking the producer (drops are reported)")

		storeDir   = flag.String("store", "", "read pre-generated trace stores (<dir>/<name>.fstore from tracegen -store, matching suite geometry) instead of synthesising")
		shard      = flag.String("shard", "", "measure only shard i of N traces, written i/N (e.g. 0/2); requires -shard-out")
		shardOut   = flag.String("shard-out", "", "with -shard: write this shard's measurements to the file and exit without rendering")
		shardMerge = flag.String("shard-merge", "", "comma-separated shard files to merge instead of measuring; renders the full suite byte-identically to a single-process run")
	)
	flag.Parse()

	// Validate before any work so a typo'd invocation fails in milliseconds
	// with an actionable message, not after minutes of generation.
	checkPositive := func(name string, v float64) {
		if !(v > 0) || math.IsInf(v, 1) {
			fatal(fmt.Errorf("-%s must be finite and > 0, got %g", name, v))
		}
	}
	checkPositive("link", *link)
	checkPositive("interval", *ivl)
	checkPositive("perhour", *perHour)
	checkPositive("delta", *delta)
	checkPositive("predsec", *predSec)
	// Every interval and the prediction trace are binned at Δ.
	checkBins := func(name string, v float64) {
		if v / *delta > timeseries.MaxBins {
			fatal(fmt.Errorf("-%s %g over -delta %g needs more than %d rate bins", name, v, *delta, timeseries.MaxBins))
		}
	}
	checkBins("interval", *ivl)
	checkBins("predsec", *predSec)
	if *maxIvl < 0 {
		fatal(fmt.Errorf("-maxivl must be >= 0 (0 = paper-proportional), got %d", *maxIvl))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers))
	}
	if *genWork < 0 {
		fatal(fmt.Errorf("-genworkers must be >= 0 (<= 1 = serial), got %d", *genWork))
	}
	if *budget < 0 {
		fatal(fmt.Errorf("-membudget must be >= 0 bytes (0 = unlimited), got %d", *budget))
	}
	if *shed && *budget == 0 {
		fatal(fmt.Errorf("-shed needs a -membudget to shed against"))
	}
	shardIndex, shardCount := 0, 0
	if *shard != "" {
		if _, err := fmt.Sscanf(*shard, "%d/%d", &shardIndex, &shardCount); err != nil || shardCount < 2 || shardIndex < 0 || shardIndex >= shardCount {
			fatal(fmt.Errorf("-shard must be i/N with 0 <= i < N and N >= 2, got %q", *shard))
		}
		if *shardOut == "" {
			fatal(fmt.Errorf("-shard renders a partial suite; use it with -shard-out and merge with -shard-merge"))
		}
		if *shardMerge != "" {
			fatal(fmt.Errorf("-shard and -shard-merge are mutually exclusive"))
		}
	}
	if *shardOut != "" && *shard == "" {
		fatal(fmt.Errorf("-shard-out needs -shard"))
	}

	// Ctrl-C cancels the measurement pass cleanly: producers stop, workers
	// drain, and the run exits with the cancellation error instead of dying
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ids := []string{
		"table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "table2", "fig14",
		"appA", "appC",
		"ablation-shots", "ablation-baseline", "ablation-delta",
		"ablation-split", "ablation-smoothing", "ablation-lrd",
	}
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	r, err := experiments.NewRunner(experiments.Options{
		Suite: trace.SuiteOptions{
			LinkBps:          *link,
			IntervalSec:      *ivl,
			IntervalsPerHour: *perHour,
			MaxIntervals:     *maxIvl,
			Seed:             *seed,
		},
		Delta:          *delta,
		Workers:        *workers,
		GenWorkers:     *genWork,
		Quiet:          *quiet,
		Context:        ctx,
		MemBudgetBytes: *budget,
		Shed:           *shed,
		StoreDir:       *storeDir,
		ShardIndex:     shardIndex,
		ShardCount:     shardCount,
	})
	if err != nil {
		fatal(err)
	}
	defer r.Close()

	if *shardOut != "" {
		if err := r.ExportShard(*shardOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote shard %s to %s\n", *shard, *shardOut)
		return
	}
	if *shardMerge != "" {
		if err := r.MergeShards(strings.Split(*shardMerge, ",")...); err != nil {
			fatal(err)
		}
	}

	want := map[string]bool{}
	if *run == "all" {
		for _, id := range ids {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			if id != "" {
				want[id] = true
			}
		}
	}

	w := os.Stdout
	dispatch := map[string]func() error{
		"table1":             func() error { return r.Table1(w) },
		"fig1":               func() error { return r.Fig1(w) },
		"fig3":               func() error { return r.Fig3(w) },
		"fig4":               func() error { return r.Fig4(w) },
		"fig5":               func() error { return r.Fig5(w) },
		"fig6":               func() error { return r.Fig6(w) },
		"fig7":               func() error { return r.Fig7(w) },
		"fig8":               func() error { return r.Fig8(w) },
		"fig9":               func() error { return r.Fig9(w) },
		"fig10":              func() error { return r.Fig10(w) },
		"fig11":              func() error { return r.Fig11(w) },
		"fig12":              func() error { return r.Fig12(w) },
		"fig13":              func() error { return r.Fig13(w) },
		"table2":             func() error { return r.Table2(w, *predSec, 1000+*seed) },
		"fig14":              func() error { return r.Fig14(w, *predSec, 1000+*seed) },
		"appA":               func() error { return r.AppA(w) },
		"appC":               func() error { return r.AppC(w, 2000+*seed) },
		"ablation-shots":     func() error { return r.AblationShots(w) },
		"ablation-baseline":  func() error { return r.AblationBaseline(w) },
		"ablation-delta":     func() error { return r.AblationDelta(w) },
		"ablation-split":     func() error { return r.AblationSplit(w) },
		"ablation-smoothing": func() error { return r.AblationSmoothing(w) },
		"ablation-lrd":       func() error { return r.AblationLRD(w) },
	}

	ran := 0
	for _, id := range ids { // canonical order
		if !want[id] {
			continue
		}
		fn, ok := dispatch[id]
		if !ok {
			fatal(fmt.Errorf("unknown experiment id %q", id))
		}
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		ran++
		delete(want, id)
	}
	for id := range want {
		fatal(fmt.Errorf("unknown experiment id %q (use -list)", id))
	}
	if ran == 0 {
		fatal(fmt.Errorf("nothing to run"))
	}
	if *shed {
		stats, err := r.ShedStats()
		if err != nil {
			fatal(err)
		}
		for _, s := range stats {
			if s.Intervals > 0 {
				fmt.Fprintf(os.Stderr, "experiments: %s: shed %d intervals (%d records) under memory pressure\n",
					s.Trace, s.Intervals, s.Records)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
