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
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
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

	type experiment struct {
		id  string
		run func(r *experiments.Runner, w io.Writer) error
	}
	type runner = experiments.Runner
	table := []experiment{ // canonical order
		{"table1", (*runner).Table1},
		{"fig1", (*runner).Fig1},
		{"fig3", (*runner).Fig3},
		{"fig4", (*runner).Fig4},
		{"fig5", (*runner).Fig5},
		{"fig6", (*runner).Fig6},
		{"fig7", (*runner).Fig7},
		{"fig8", (*runner).Fig8},
		{"fig9", (*runner).Fig9},
		{"fig10", (*runner).Fig10},
		{"fig11", (*runner).Fig11},
		{"fig12", (*runner).Fig12},
		{"fig13", (*runner).Fig13},
		{"table2", func(r *runner, w io.Writer) error { return r.Table2(w, *predSec, 1000+*seed) }},
		{"fig14", func(r *runner, w io.Writer) error { return r.Fig14(w, *predSec, 1000+*seed) }},
		{"appA", (*runner).AppA},
		{"appC", func(r *runner, w io.Writer) error { return r.AppC(w, 2000+*seed) }},
		{"ablation-shots", (*runner).AblationShots},
		{"ablation-baseline", (*runner).AblationBaseline},
		{"ablation-delta", (*runner).AblationDelta},
		{"ablation-split", (*runner).AblationSplit},
		{"ablation-smoothing", (*runner).AblationSmoothing},
		{"ablation-lrd", (*runner).AblationLRD},
	}
	if *list {
		for _, e := range table {
			fmt.Println(e.id)
		}
		return
	}

	// Resolve -run against the table before any work, so an unknown id
	// fails before the valid ones have run.
	selected := table
	if *run != "all" {
		want := map[string]bool{}
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !slices.ContainsFunc(table, func(e experiment) bool { return e.id == id }) {
				fatal(fmt.Errorf("unknown -run id %q (use -list)", id))
			}
			want[id] = true
		}
		selected = nil
		for _, e := range table {
			if want[e.id] {
				selected = append(selected, e)
			}
		}
	}
	if len(selected) == 0 && *shardOut == "" {
		fatal(fmt.Errorf("nothing to run"))
	}

	r, err := experiments.NewRunner(experiments.Options{
		Suite: trace.SuiteOptions{
			LinkBps:          *link,
			IntervalSec:      *ivl,
			IntervalsPerHour: *perHour,
			MaxIntervals:     *maxIvl,
			Seed:             *seed,
		},
		Delta:      *delta,
		Workers:    *workers,
		GenWorkers: *genWork,
		Quiet:      *quiet,
		Context:    ctx,
		StoreDir:   *storeDir,
		ShardIndex: shardIndex,
		ShardCount: shardCount,
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

	for _, e := range selected {
		if err := e.run(r, os.Stdout); err != nil {
			fatal(fmt.Errorf("%s: %w", e.id, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
