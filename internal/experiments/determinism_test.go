package experiments

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/flow"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// renderSuiteOpts runs the suite-wide experiments whose output covers every
// cached measurement (Table I summaries, 5-tuple and /24 scatter points)
// with the given options and returns the concatenated output.
func renderSuiteOpts(t *testing.T, o Options, workers int) string {
	t.Helper()
	o.Workers = workers
	return renderSuite(t, o)
}

func renderSuite(t *testing.T, o Options) string {
	t.Helper()
	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Fig9(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Fig12(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// generateSuiteStores writes every suite trace as a store file (footer
// checkpoint per analysis interval) into a temp dir, as `tracegen -store`
// would, and returns the dir.
func generateSuiteStores(t *testing.T, o Options) string {
	t.Helper()
	dir := t.TempDir()
	specs, err := trace.DefaultSuite(o.Suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		cfg := suiteConfig(spec)
		path := filepath.Join(dir, spec.Name+".fstore")
		if _, err := store.Generate(context.Background(), path, cfg, spec.IntervalSec, store.Options{}); err != nil {
			t.Fatalf("generating %s: %v", path, err)
		}
	}
	return dir
}

// Suite-from-store is the out-of-core measurement path: stored blocks carry
// the generator's exact rebased times, so the suite output — and the
// reference figures that replay the reference window, which a store-backed
// runner synthesises — must be byte-identical to the synthesis pass.
func TestSuiteFromStoreMatchesSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	golden := renderSuiteOpts(t, tinyOptions(), 1)
	dir := generateSuiteStores(t, tinyOptions())
	o := tinyOptions()
	o.StoreDir = dir
	if got := renderSuiteOpts(t, o, 4); got != golden {
		t.Fatal("suite-from-store output differs from suite-from-synthesis")
	}

	// Reference-window figures: store-backed runner vs synthesising runner.
	rs, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rm, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	render := func(r *Runner) string {
		var buf bytes.Buffer
		if err := r.AblationDelta(&buf); err != nil {
			t.Fatal(err)
		}
		if err := r.AblationLRD(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render(rs) != render(rm) {
		t.Fatal("store-backed reference figures differ from the synthesising runner's")
	}
}

// The reference interval is exactly the interval the suite measured: trace
// 1's packets below the interval end, measured whole under both
// definitions, give the flows and discarded packets RefInterval returns —
// for a synthesising runner and for a store-backed one, which measures from
// the store while refSeries re-synthesises. refSeries bins exactly those
// packets, however early its stream stops.
func TestRefIntervalMatchesSuiteMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	// Two intervals in trace 0, so a pass running past interval 0 would
	// measure packets the suite split off.
	synth := tinyOptions()
	synth.Suite.IntervalsPerHour = 1
	stored := synth
	stored.StoreDir = generateSuiteStores(t, stored)
	for name, o := range map[string]Options{"synthesis": synth, "store": stored} {
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		spec := r.Specs()[0]
		if n := spec.Intervals; n < 2 {
			t.Fatalf("%s: trace 0 has %d intervals, want >= 2", name, n)
		}
		res5, resP, err := r.RefInterval()
		if err != nil {
			t.Fatal(err)
		}
		m, err := flow.NewMeasurer(suiteDefs, flow.DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		b, err := timeseries.NewBinner(spec.IntervalSec, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		_, err = trace.StreamParallelBlocksCtx(context.Background(), suiteConfig(spec), 1, func(blk *trace.Block) error {
			sub := blk.Slice(0, sort.SearchFloat64s(blk.Times, spec.IntervalSec))
			b.AddBlock(&sub)
			return m.AddBlock(&sub)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Flush()
		for di, want := range []flow.Result{res5, resP} {
			if len(want.Flows) == 0 {
				t.Fatalf("%s/%s: suite kept no reference flows", name, suiteDefs[di])
			}
			if !slices.Equal(got[di].Flows, want.Flows) || !slices.Equal(got[di].Discarded, want.Discarded) {
				t.Fatalf("%s/%s: interval measures %d flows / %d discarded, suite %d / %d",
					name, suiteDefs[di], len(got[di].Flows), len(got[di].Discarded), len(want.Flows), len(want.Discarded))
			}
		}
		series, err := r.refSeries(0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(series.Rate, b.Series().Rate) {
			t.Fatalf("%s: refSeries differs from the interval's binned packets", name)
		}
	}
}

// Shard export/merge is the cross-process contract: two shard runners over
// disjoint trace subsets, exported to files and merged into a fresh runner,
// must render byte-identical output to the single-process pass — including
// the reference figures, whose flow results travel with the shard that owns
// trace 0.
func TestShardMergeMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	golden := renderSuiteOpts(t, tinyOptions(), 1)
	gr, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var goldenFig1 bytes.Buffer
	if err := gr.Fig1(&goldenFig1); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var files []string
	for i := 0; i < 2; i++ {
		o := tinyOptions()
		o.ShardIndex, o.ShardCount = i, 2
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.shard", i))
		if err := r.ExportShard(path); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}

	m, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MergeShards(files...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Fig9(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Fig12(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Fatal("merged shard output differs from the single-process run")
	}
	var mergedFig1 bytes.Buffer
	if err := m.Fig1(&mergedFig1); err != nil {
		t.Fatal(err)
	}
	if mergedFig1.String() != goldenFig1.String() {
		t.Fatal("merged reference figure differs from the single-process run")
	}

	// A merge that misses a shard must refuse, not render a partial suite.
	p, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MergeShards(files[0]); err == nil {
		t.Fatal("merge accepted incomplete shard coverage")
	}
}

// The measurement pass schedules (trace, interval) tasks over a worker pool;
// the same seed must produce byte-identical output at any worker count, or
// the parallelism would silently change the science.
func TestSuiteOutputDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	sequential := renderSuiteOpts(t, tinyOptions(), 1)
	if len(sequential) == 0 {
		t.Fatal("sequential run produced no output")
	}
	for _, workers := range []int{2, 4, 16} {
		if got := renderSuiteOpts(t, tinyOptions(), workers); got != sequential {
			t.Fatalf("output with %d workers differs from sequential run", workers)
		}
	}
}

// The same guarantee under intra-trace sharding stress: uncapped interval
// counts give the 39.5 h trace several times more intervals than the others,
// so many intervals of one trace are in flight at once and worker counts
// beyond the seven traces exercise the second scheduler level.
func TestSuiteOutputDeterministicIntraTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	longOpts := func() Options {
		return Options{
			Suite: trace.SuiteOptions{
				LinkBps:          10e6,
				IntervalSec:      20,
				IntervalsPerHour: 0.2,
				// MaxIntervals unset: trace 4 runs its full paper-length
				// share (≈ 8 intervals at this scale).
			},
			Quiet: true,
		}
	}
	sequential := renderSuiteOpts(t, longOpts(), 1)
	if len(sequential) == 0 {
		t.Fatal("sequential run produced no output")
	}
	for _, workers := range []int{3, 16} {
		if got := renderSuiteOpts(t, longOpts(), workers); got != sequential {
			t.Fatalf("output with %d workers differs from sequential run", workers)
		}
	}
}

// The batch-columnar pipeline moves packets in SoA blocks whose size is a
// pure transport choice: output must be byte-identical at any block size —
// including size 1, where every interval-boundary and key-derivation edge
// case fires per packet — alone and combined with both worker pools.
func TestSuiteOutputDeterministicAcrossBlockSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	base := renderSuiteOpts(t, tinyOptions(), 1)
	if len(base) == 0 {
		t.Fatal("baseline run produced no output")
	}
	for _, bs := range []int{1, 64, 256} {
		o := tinyOptions()
		o.Workers = 1
		o.blockSize = bs
		if got := renderSuite(t, o); got != base {
			t.Fatalf("output with block size %d differs from the default", bs)
		}
	}
	// Odd block size riding both pools: block boundaries then straddle
	// synthesis segment merges and interval handoffs arbitrarily.
	o := tinyOptions()
	o.Workers = 4
	o.GenWorkers = 4
	o.blockSize = 17
	if got := renderSuite(t, o); got != base {
		t.Fatal("output with block size 17 × workers=4 × genworkers=4 differs from the default")
	}
}

// Sharded generation is the third axis of the scheduler: the synthesis pool
// feeds each trace's interval partitioner a bit-identical stream, so suite
// output must not depend on the generation worker count — alone or combined
// with measurement workers.
func TestSuiteOutputDeterministicAcrossGenWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	serial := renderSuiteOpts(t, tinyOptions(), 1)
	if len(serial) == 0 {
		t.Fatal("serial run produced no output")
	}
	for _, genWorkers := range []int{2, 4, 16} {
		o := tinyOptions()
		o.Workers = 1
		o.GenWorkers = genWorkers
		if got := renderSuite(t, o); got != serial {
			t.Fatalf("output with %d generation workers differs from the serial generator's", genWorkers)
		}
	}
	// Both pools at once: measurement scheduling and generation sharding
	// compose without perturbing the science.
	o := tinyOptions()
	o.Workers = 4
	o.GenWorkers = 4
	if got := renderSuite(t, o); got != serial {
		t.Fatal("output with workers=4 × genworkers=4 differs from the serial run")
	}
}
