// Package experiments regenerates every table and figure of the paper's
// evaluation (Barakat et al., IMC 2002) on the synthetic trace suite. Each
// experiment is a method on Runner that writes the table's rows or the
// figure's data series to an io.Writer; cmd/experiments exposes them by id
// and bench_test.go wraps them as benchmarks. Experiment ids name the paper
// artefact they regenerate (table1 = Table I, fig9 = Figure 9, appA =
// §VII-A); `experiments -list` prints them.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// Options scales the experiment suite. The zero value reproduces the
// default scaled Table I suite (100 Mb/s link, 120 s intervals).
type Options struct {
	Suite trace.SuiteOptions
	// Delta is the rate averaging interval (default 0.2 s, the paper's
	// 200 ms round-trip-time choice, §V-F).
	Delta float64
	// Workers sizes the interval-level worker pool of the two-level
	// measurement scheduler. Traces produce their packet streams
	// concurrently (at most Workers traces at once, capped at the suite
	// size) while Workers measurement workers consume the per-interval
	// sub-streams those producers partition off — intervals are independent
	// after the boundary split, so a long trace's intervals measure in
	// parallel and the suite scales past one worker per trace. Results land
	// in a table indexed by trace, interval and definition, so output is
	// identical at any worker count. 0 means GOMAXPROCS; 1 is sequential.
	Workers int
	// GenWorkers sizes each trace producer's packet-synthesis pool
	// (trace.StreamParallelBlocksCtx): phase 1 of synthesis stays a cheap
	// serial RNG pass, while packet synthesis shards across GenWorkers
	// timeline segments feeding the interval partitioner in order — so with
	// measurement already parallel, the remaining serial critical path of a
	// long trace parallelises too. The packet stream is bit-identical at any
	// count, so output never depends on it. <= 1 means one serial player per
	// producer; each producer spawns its own pool, so total generation
	// goroutines scale with producers × GenWorkers.
	GenWorkers int
	// Quiet suppresses per-point output, keeping only summaries (used by
	// benchmarks).
	Quiet bool
	// Context, when non-nil, bounds the whole measurement pass: on
	// cancellation producers stop generating, workers drain and recycle
	// their in-flight blocks, and the pass returns an error wrapping the
	// context's error. nil means run to completion.
	Context context.Context
	// StoreDir, when set, points the measurement pass at pre-generated trace
	// stores: each suite trace streams from <StoreDir>/<name>.fstore
	// (written by `tracegen -store` with the same suite geometry) instead of
	// being re-synthesised; the rate series of the one reference interval
	// is still synthesised (see refSeries). Output is byte-identical to the
	// synthesis path: stored blocks carry the exact rebased times the
	// generator emitted.
	StoreDir string
	// ShardIndex/ShardCount split the suite across processes: this runner
	// measures only traces ti with ti % ShardCount == ShardIndex
	// (ShardCount <= 1 = the whole suite). A shard runner's own rendering is
	// partial by construction; ExportShard persists its measurements so
	// MergeShards can reassemble the full suite byte-identically elsewhere.
	ShardIndex int
	ShardCount int
	// blockSize overrides the record count of the SoA blocks the interval
	// partitioner emits (0 = trace.BlockSize). Output is byte-identical at
	// any size; the determinism tests set it to stress block-boundary
	// handling in the batch measurement path.
	blockSize int
	// wrapBlocks, when set, interposes on each trace producer's block
	// stream (stage name = trace name) — the fault-injection hook of the
	// chaos tests. Must preserve the callback's contract when it forwards.
	wrapBlocks func(stage string, fn func(*trace.Block) error) func(*trace.Block) error
}

func (o Options) withDefaults() Options {
	if o.Delta == 0 {
		o.Delta = 0.2
	}
	return o
}

// IntervalStat is the measurement of one (interval, flow definition) pair —
// one point of the paper's scatter plots.
type IntervalStat struct {
	Trace      string
	TargetBps  float64
	Index      int
	Def        flow.Definition
	FlowCount  int     // multi-packet flows
	Discarded  int     // single-packet flows
	MeasMean   float64 // bit/s
	MeasVar    float64
	MeasCoV    float64
	Lambda     float64         // flows/s
	MeanS      float64         // bits
	MeanS2oD   float64         // bits²/s
	ModelCoV   map[int]float64 // shot exponent b -> eq.(7)-averaged model CoV
	FittedBRaw float64         // §V-D fit against the raw measured variance

	linkBps float64 // scaled link capacity, for the utilisation classes
}

// UtilClass buckets an interval by its paper-equivalent utilisation, the
// three marker classes of Figures 9-13 (crosses < 50 Mb/s, triangles
// 50-125 Mb/s, dots > 125 Mb/s on the OC-12). Class boundaries scale with
// the link so the clusters survive rescaling.
func (s IntervalStat) UtilClass() string {
	switch {
	case s.TargetBps < 50e6/trace.PaperLinkBps*s.linkBps:
		return "low(<50M-eq)"
	case s.TargetBps < 125e6/trace.PaperLinkBps*s.linkBps:
		return "mid(50-125M-eq)"
	default:
		return "high(>125M-eq)"
	}
}

// Runner caches the generated suite so that the scatter figures, Table I
// and Figure 11 share one measurement pass.
type Runner struct {
	opts  Options
	specs []trace.TraceSpec

	// results is the suite measurement, one entry per suite trace: nil until
	// measureSuite or MergeShards fills it, and never filled twice.
	results []*traceResult
}

// Close returns nil: the runner holds nothing open (every trace streams,
// and the reference series re-synthesises from the generator). It is kept
// for callers that defer it after NewRunner.
func (r *Runner) Close() error { return nil }

// NewRunner builds the scaled suite.
func NewRunner(opts Options) (*Runner, error) {
	o := opts.withDefaults()
	if o.ShardCount > 1 && (o.ShardIndex < 0 || o.ShardIndex >= o.ShardCount) {
		return nil, fmt.Errorf("experiments: shard index %d outside 0..%d", o.ShardIndex, o.ShardCount-1)
	}
	specs, err := trace.DefaultSuite(o.Suite)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Runner{opts: o, specs: specs}, nil
}

// Specs exposes the scaled Table I suite.
func (r *Runner) Specs() []trace.TraceSpec { return r.specs }

// linkBps returns the scaled link capacity of the suite.
func (r *Runner) linkBps() float64 {
	if r.opts.Suite.LinkBps != 0 {
		return r.opts.Suite.LinkBps
	}
	return 100e6
}

// suiteDefs are the two flow definitions every interval is measured under.
var suiteDefs = []flow.Definition{flow.By5Tuple, flow.ByPrefix24}

// suiteWarmup is the per-trace warm-up (seconds) that puts each generator in
// its stationary regime before the measured window opens (see trace.Config).
const suiteWarmup = 60

// suiteConfig is the exact generator configuration the measurement pass runs
// a trace with. refSeries re-synthesises the reference interval from the
// same configuration, so every adjustment must live here — a divergence
// would make its packets disagree with the cached flow measurements.
func suiteConfig(spec trace.TraceSpec) trace.Config {
	cfg := spec.Config()
	cfg.Warmup = suiteWarmup
	return cfg
}

// intervalStreamBuffer bounds how many records an interval sub-stream holds
// while its measurement worker lags its trace's producer; beyond it the
// producer blocks, so suite memory stays O(workers · buffer + active flows)
// however long the traces are.
const intervalStreamBuffer = 4096

// errAborted is the cancellation cause of a measurement pass doomed by an
// earlier failure; work it cuts short never surfaces as the pass's error.
var errAborted = fmt.Errorf("aborted after earlier measurement failure")

// traceResult is one trace's share of the suite measurement: the table
// every accessor reads. Interval workers write disjoint slots of a
// measuring runner's table; a merging runner decodes shard files into it.
// Its layout alone fixes the order Stats reports points in, so that order is
// independent of scheduling and of how the suite was split across shards.
type traceResult struct {
	summary trace.Summary
	// stats[idx][di] is interval idx's scatter point under suiteDefs[di]
	// (nil when the interval was empty, sparse or degenerate).
	stats [][2]*IntervalStat
	// Reference-interval capture (trace 1, interval 0 only), per suiteDefs.
	ref [2]flow.Result
}

// newTraceResult returns an empty table entry for a trace of n intervals.
func newTraceResult(n int) *traceResult {
	return &traceResult{stats: make([][2]*IntervalStat, n)}
}

// intervalTask is one (trace, interval) unit of the two-level scheduler.
type intervalTask struct {
	ti     int
	stream *flow.IntervalStream
}

// measureSuite measures every trace of the suite with a two-level scheduler:
// trace producers (at most Workers at once) stream their generators through
// an interval partitioner, and a shared pool of Workers interval workers
// measures the partitioned per-interval sub-streams — flows under both
// definitions, the rate binner and the model statistics all run inside the
// interval task. Intervals are independent after the boundary split, so a
// long trace's intervals measure concurrently instead of serially inside one
// worker, and the suite scales past one worker per trace. No trace is ever
// materialised: producers back-pressure on their current interval's bounded
// sub-stream buffer, and an in-flight cap stops a producer from queueing an
// unbounded run of small completed intervals. That structure alone bounds
// the resident blocks — at most 2·(workers + producers) streams, each with
// buffer/blockSize sent blocks plus one pending — however long the traces
// are, and no interval is ever dropped to stay under it. Results
// land in per-(trace, interval, definition) slots of the result table, so
// what Stats reads is byte-identical at any worker count.
func (r *Runner) measureSuite() error {
	if r.results != nil {
		return nil
	}
	parent := r.context()
	workers := r.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	producers := workers
	if producers > len(r.specs) {
		producers = len(r.specs)
	}
	results := make([]*traceResult, len(r.specs))
	totalIntervals := 0
	for ti, spec := range r.specs {
		results[ti] = newTraceResult(spec.Intervals)
		totalIntervals += spec.Intervals
	}

	// One meter per worker serves every interval that worker measures
	// (every suite trace shares one interval length), built and validated
	// before any goroutine exists: a construction error returns here
	// instead of being discovered by a worker that has no clean way to
	// report it.
	meters := make([]*core.Meter, workers)
	for w := range meters {
		m, err := core.NewMeter(suiteDefs, flow.DefaultTimeout, r.specs[0].IntervalSec, r.opts.Delta)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		meters[w] = m
	}

	// Sized to hold every interval of the suite, so a producer's handoff
	// never blocks on the queue itself (only on the in-flight cap and its
	// sub-stream buffer) and the producer/worker levels cannot deadlock at
	// any worker count.
	tasks := make(chan intervalTask, totalIntervals)
	// inflight caps handed-off-but-unfinished interval streams. Without it,
	// a producer whose intervals each fit inside the sub-stream buffer never
	// blocks and queues its whole trace — materialising it. Deadlock-free:
	// a producer only acquires at a handoff, by which point its previous
	// stream is already closed, so every held slot is a stream some worker
	// can finish without that producer's help.
	inflight := make(chan struct{}, 2*(workers+producers))
	prodErrs := make([]error, len(r.specs))
	taskErrs := make([]error, len(r.specs))
	var taskErrMu sync.Mutex
	// One context carries both the caller's cancellation and the pass's own
	// abort: the first failure cancels it with errAborted as its cause.
	// Producers and workers check it between units, and the blocking points
	// inside a unit (generator sends, partitioner sends) watch it directly.
	ctx, abort := context.WithCancelCause(parent)
	defer abort(nil)

	recordTaskErr := func(ti int, err error) {
		taskErrMu.Lock()
		if taskErrs[ti] == nil {
			taskErrs[ti] = err
		}
		taskErrMu.Unlock()
		abort(errAborted)
	}

	var taskWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		meter := meters[w]
		taskWG.Add(1)
		go func() {
			defer taskWG.Done()
			for tk := range tasks {
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							// A panicking measurement must not take the pass
							// down: convert to an error, doom the pass, and
							// finish draining the stream (the iterator's own
							// unwind already recycled what it had in hand)
							// so the producer is never left blocked.
							recordTaskErr(tk.ti, fmt.Errorf("interval %d: measurement panicked: %v", tk.stream.Index, rec))
							for range tk.stream.Blocks() {
							}
						}
						<-inflight
					}()
					if ctx.Err() != nil {
						// Still drain the stream: its producer may be blocked
						// mid-send on the buffer.
						for range tk.stream.Blocks() {
						}
						return
					}
					if err := r.measureInterval(tk.ti, tk.stream, results[tk.ti], meter); err != nil {
						recordTaskErr(tk.ti, fmt.Errorf("interval %d: %w", tk.stream.Index, err))
					}
				}()
			}
		}()
	}

	tis := make(chan int)
	var prodWG sync.WaitGroup
	for w := 0; w < producers; w++ {
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			for ti := range tis {
				if !r.ownsTrace(ti) {
					continue // another shard's trace: its slots stay empty
				}
				// One failure (or the caller's cancellation) skips the
				// traces not yet started.
				if ctx.Err() != nil {
					continue
				}
				summary, err := r.produceTrace(ctx, ti, r.specs[ti], tasks, inflight)
				results[ti].summary = summary
				if err != nil {
					prodErrs[ti] = err
					abort(errAborted)
				}
			}
		}()
	}
	for ti := range r.specs {
		tis <- ti
	}
	close(tis)
	prodWG.Wait()
	close(tasks)
	taskWG.Wait()

	// Work cut short by the pass's own abort is fallout, not a failure: the
	// error that caused the abort is reported instead. A caller's
	// cancellation has its own cause, so it is still reported.
	aborted := context.Cause(ctx) == errAborted
	var firstErr error
	var firstName string
	for ti := range r.specs {
		for _, err := range []error{prodErrs[ti], taskErrs[ti]} {
			if err == nil || errors.Is(err, errAborted) || (aborted && errors.Is(err, context.Canceled)) {
				continue
			}
			if firstErr == nil {
				firstErr, firstName = err, r.specs[ti].Name
			}
		}
	}
	if firstErr != nil {
		return fmt.Errorf("experiments: measuring %s: %w", firstName, firstErr)
	}
	// Cancellation can abort the pass between per-trace error slots (e.g.
	// after every started trace finished); never report a cancelled pass as
	// a clean one.
	if err := parent.Err(); err != nil {
		return fmt.Errorf("experiments: measurement pass cancelled: %w", err)
	}
	r.results = results
	return nil
}

// produceTrace is the scheduler's first level: it streams one trace's
// generator through an interval partitioner, enqueueing each interval's
// sub-stream as a task the moment it opens. It blocks when its current
// interval's buffer fills, so generation never outruns measurement by more
// than the buffer.
func (r *Runner) produceTrace(ctx context.Context, ti int, spec trace.TraceSpec, tasks chan<- intervalTask, inflight chan struct{}) (sum trace.Summary, err error) {
	cfg := suiteConfig(spec)
	var part *flow.IntervalPartitioner
	// A panic anywhere in this producer (generator, partitioner, a faulty
	// injected wrapper) must not take the process down with workers still
	// live: convert it to an error and tear the partitioner down so every
	// handed-off stream still terminates.
	defer func() {
		if rec := recover(); rec != nil {
			if part != nil {
				part.Abort()
			}
			err = fmt.Errorf("producing trace: panic: %v", rec)
		}
	}()
	part, err = flow.NewIntervalPartitioner(spec.IntervalSec, cfg.Duration, intervalStreamBuffer,
		func(is *flow.IntervalStream) error {
			// Bail out between intervals once the pass is doomed, instead
			// of generating the rest of a long trace nobody will read.
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			inflight <- struct{}{}
			tasks <- intervalTask{ti: ti, stream: is}
			return nil
		})
	if err != nil {
		return trace.Summary{}, err
	}
	if r.opts.blockSize > 0 {
		if err := part.SetBlockSize(r.opts.blockSize); err != nil {
			return trace.Summary{}, err
		}
	}
	if err := part.SetContext(ctx); err != nil {
		return trace.Summary{}, err
	}
	sink := part.AddBlock
	if r.opts.wrapBlocks != nil {
		sink = r.opts.wrapBlocks(spec.Name, sink)
	}
	// The generation workers synthesise timeline shards concurrently and
	// feed the partitioner one merged, time-ordered, bit-identical block
	// stream — the partitioner cannot tell it apart from the serial
	// stream. A pre-generated store replays the identical stream (stored
	// blocks carry the exact rebased times synthesis emitted), so the source
	// choice never changes the science.
	if r.opts.StoreDir != "" {
		sum, err = r.streamStored(ctx, spec, cfg, sink)
	} else {
		sum, err = trace.StreamParallelBlocksCtx(ctx, cfg, r.opts.GenWorkers, sink)
	}
	if err != nil {
		part.Abort()
		return sum, err
	}
	return sum, part.Close()
}

// context returns the caller's bound on the runner's passes (Options.Context,
// or Background when unset).
func (r *Runner) context() context.Context {
	if r.opts.Context == nil {
		return context.Background()
	}
	return r.opts.Context
}

// ownsTrace reports whether this runner's shard measures trace ti.
func (r *Runner) ownsTrace(ti int) bool {
	return r.opts.ShardCount <= 1 || ti%r.opts.ShardCount == r.opts.ShardIndex
}

// storePath locates one suite trace's pre-generated store file.
func (r *Runner) storePath(spec trace.TraceSpec) string {
	return filepath.Join(r.opts.StoreDir, spec.Name+".fstore")
}

// streamStored replays a pre-generated trace store through sink, standing in
// for the generator. The stored metadata is cross-checked against the exact
// configuration the synthesis path would have run, so a stale or mismatched
// store fails loudly instead of measuring the wrong trace.
func (r *Runner) streamStored(ctx context.Context, spec trace.TraceSpec, cfg trace.Config, sink func(*trace.Block) error) (trace.Summary, error) {
	sr, err := store.Open(r.storePath(spec))
	if err != nil {
		return trace.Summary{}, err
	}
	defer sr.Close()
	m := sr.Meta()
	if m.Seed != cfg.Seed || m.Duration != cfg.Duration || m.Warmup != cfg.Warmup || m.Lambda != cfg.Lambda {
		return trace.Summary{}, fmt.Errorf("store %s generated with (seed %d, duration %g, warmup %g, lambda %g); suite needs (%d, %g, %g, %g)",
			r.storePath(spec), m.Seed, m.Duration, m.Warmup, m.Lambda, cfg.Seed, cfg.Duration, cfg.Warmup, cfg.Lambda)
	}
	if err := sr.Stream(ctx, 0, sink); err != nil {
		return trace.Summary{}, err
	}
	return sr.Summary(), nil
}

// measureInterval is the scheduler's second level: it owns one interval
// outright — the worker's meter, re-armed for both definitions, and the
// model statistics — so intervals of the same trace measure concurrently.
// The sub-stream is always drained to completion (even on error), so the
// producing trace is never left blocked.
func (r *Runner) measureInterval(ti int, is *flow.IntervalStream, tr *traceResult, meter *core.Meter) error {
	spec := r.specs[ti]
	meter.Reset()
	// Blocks are interval-local already, exactly what the meter's binner
	// and flow tables want; each packet probes the 5-tuple table only, and
	// the /24 flows are merged from the 5-tuple flows at flush. An early
	// return still drains the stream (see
	// IntervalStream.Blocks).
	for blk := range is.Blocks() {
		if err := meter.AddBlock(blk); err != nil {
			return err
		}
	}
	results := meter.Flush()
points:
	for di, def := range suiteDefs {
		res := results[di]
		// An empty, sparse or degenerate interval yields no point.
		if len(res.Flows) < minIntervalFlows {
			continue
		}
		iv, err := meter.Eval(res)
		if err != nil {
			continue
		}
		stat := IntervalStat{
			Trace:     spec.Name,
			TargetBps: spec.TargetBps,
			Index:     is.Index,
			Def:       def,
			FlowCount: len(res.Flows),
			Discarded: len(res.Discarded),
			MeasMean:  iv.MeasMean, MeasVar: iv.MeasVar, MeasCoV: iv.MeasCoV,
			Lambda: iv.Lambda, MeanS: iv.MeanS, MeanS2oD: iv.MeanS2OverD,
			ModelCoV:   map[int]float64{},
			FittedBRaw: iv.FittedB,
			linkBps:    r.linkBps(),
		}
		mu := iv.Lambda * iv.MeanS
		for b := range 3 { // the paper's shapes: rectangular, triangular, parabolic
			sigma, err := meter.SigmaDelta(iv, b)
			if err != nil {
				continue points
			}
			if mu > 0 {
				stat.ModelCoV[b] = sigma / mu
			}
		}
		tr.stats[is.Index][di] = &stat
		if ti == 0 && is.Index == 0 {
			// The meter's results are borrowed until its next Flush.
			tr.ref[di] = flow.Result{Flows: slices.Clone(res.Flows), Discarded: slices.Clone(res.Discarded)}
		}
	}
	return nil
}

// minIntervalFlows is the fewest multi-packet flows an interval needs to
// yield a meaningful scatter point.
const minIntervalFlows = 10

// Stats returns all per-interval statistics for the given definition,
// ordered by trace (in suite order) then interval.
func (r *Runner) Stats(def flow.Definition) ([]IntervalStat, error) {
	if err := r.measureSuite(); err != nil {
		return nil, err
	}
	di := slices.Index(suiteDefs, def)
	var out []IntervalStat
	for _, tr := range r.results {
		for _, slots := range tr.stats {
			if di >= 0 && slots[di] != nil {
				out = append(out, *slots[di])
			}
		}
	}
	return out, nil
}

// RefInterval returns both flow measurements of the designated reference
// interval (trace 1, interval 0), kept by the measurement pass; refSeries
// re-synthesises its packets when a figure needs the rate series.
func (r *Runner) RefInterval() (flow.Result, flow.Result, error) {
	if err := r.measureSuite(); err != nil {
		return flow.Result{}, flow.Result{}, err
	}
	ref := r.results[0].ref
	return ref[0], ref[1], nil
}

// Summaries returns the per-trace generator summaries, in suite order.
func (r *Runner) Summaries() ([]trace.Summary, error) {
	if err := r.measureSuite(); err != nil {
		return nil, err
	}
	sums := make([]trace.Summary, len(r.results))
	for ti, tr := range r.results {
		sums[ti] = tr.summary
	}
	return sums, nil
}

// TraceShed and ShedStats are a compatibility stub for the benchmark
// module: the measurement pass never drops an interval, so there is
// nothing to report and ShedStats always returns nil.
type TraceShed struct{ Intervals int64 }

// ShedStats returns nil; see TraceShed.
func (r *Runner) ShedStats() ([]TraceShed, error) { return nil, nil }

// sep prints a section separator.
func sep(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
