package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// Suite geometry of the table1-* workloads: a 50 Mb/s link, 60 s analysis
// intervals and one interval per paper hour — 96 intervals, 40 of them in
// the 39.5 h trace-4.
const (
	suiteLinkBps     = 50e6
	suiteIntervalSec = 60
	suitePerHour     = 1
	suiteDelta       = 0.2
	suiteWorkers     = 2
	suiteGenWorkers  = 1
)

// The measurement pass's private constants, mirrored by the traced rebuild
// (experiments.suiteWarmup, intervalStreamBuffer, minIntervalFlows). A
// drift shows up as a rebuilt-statistics mismatch, which fails the run.
const (
	suiteWarmup      = 60
	suiteBuffer      = 4096
	minIntervalFlows = 10
)

// suiteExperiments are the rendered experiments: Table I plus the
// reference-interval and scatter figures, in the CLI's canonical order.
var suiteExperiments = []string{"table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}

var suiteDefs = []flow.Definition{flow.By5Tuple, flow.ByPrefix24}

func suiteOptions(seed int64) trace.SuiteOptions {
	return trace.SuiteOptions{
		LinkBps:          suiteLinkBps,
		IntervalSec:      suiteIntervalSec,
		IntervalsPerHour: suitePerHour,
		Seed:             seed,
	}
}

// suiteConfig is the generator configuration the measurement pass runs a
// trace with.
func suiteConfig(spec trace.TraceSpec) trace.Config {
	cfg := spec.Config()
	cfg.Warmup = suiteWarmup
	return cfg
}

// render writes the suite's experiments to w in canonical order.
func render(r *experiments.Runner, w io.Writer) error {
	calls := map[string]func(io.Writer) error{
		"table1": r.Table1, "fig1": r.Fig1, "fig3": r.Fig3, "fig4": r.Fig4,
		"fig5": r.Fig5, "fig6": r.Fig6, "fig8": r.Fig8, "fig9": r.Fig9,
		"fig10": r.Fig10, "fig11": r.Fig11, "fig12": r.Fig12, "fig13": r.Fig13,
	}
	for _, id := range suiteExperiments {
		if err := calls[id](w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// suiteRun is one complete run of the suite through experiments.Runner.
type suiteRun struct {
	digest    string // sha256 of the rendered experiment bytes
	packets   int64
	intervals int64
	shed      int64   // intervals dropped under memory pressure
	measure   float64 // seconds in the first Runner.Stats (the measurement pass)
	render    float64 // seconds rendering the experiments afterwards
	stats     [2][]experiments.IntervalStat
}

// runSuite runs the suite start to finish: build the runner, measure, render
// every experiment into a digest.
func runSuite(opts experiments.Options) (suiteRun, error) {
	var out suiteRun
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return out, err
	}
	defer r.Close()
	t0 := time.Now()
	if out.stats[0], err = r.Stats(suiteDefs[0]); err != nil {
		return out, err
	}
	out.measure = time.Since(t0).Seconds()
	t1 := time.Now()
	h := sha256.New()
	if err := render(r, h); err != nil {
		return out, err
	}
	out.render = time.Since(t1).Seconds()
	out.digest = hex.EncodeToString(h.Sum(nil))
	if out.stats[1], err = r.Stats(suiteDefs[1]); err != nil {
		return out, err
	}
	sums, err := r.Summaries()
	if err != nil {
		return out, err
	}
	for _, s := range sums {
		out.packets += s.Packets
	}
	sheds, err := r.ShedStats()
	if err != nil {
		return out, err
	}
	for _, s := range sheds {
		out.shed += s.Intervals
	}
	for _, s := range r.Specs() {
		out.intervals += int64(s.Intervals)
	}
	return out, nil
}

// suiteBench is the table1-synth (stored = false) and table1-store
// (stored = true) workloads.
type suiteBench struct {
	name     string
	stored   bool
	seed     int64
	storeDir string

	// Set by the last setup: the stores' write time (summed over writers)
	// and file bytes.
	writeBusy  float64
	writeBytes int64
}

func (b *suiteBench) goldenKey() string { return "table1" }
func (b *suiteBench) close()            {}

func (b *suiteBench) options(workers int, stored bool) experiments.Options {
	o := experiments.Options{
		Suite:      suiteOptions(b.seed),
		Delta:      suiteDelta,
		Workers:    workers,
		GenWorkers: suiteGenWorkers,
	}
	if stored {
		o.StoreDir = b.storeDir
	}
	return o
}

// setup builds the runner (suite specs and eq.(7) kernels) and, for
// table1-store, writes every suite trace's store.
func (b *suiteBench) setup() error {
	r, err := experiments.NewRunner(b.options(suiteWorkers, b.stored))
	if err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	if !b.stored {
		return nil
	}
	if err := os.RemoveAll(b.storeDir); err != nil {
		return err
	}
	if err := os.MkdirAll(b.storeDir, 0o755); err != nil {
		return err
	}
	b.writeBusy, b.writeBytes, err = writeSuiteStores(b.storeDir, b.seed)
	return err
}

// writeSuiteStores generates every suite trace into <dir>/<name>.fstore with
// a checkpoint footer every analysis interval — what `tracegen -store` writes
// in suite mode — two traces at a time. It returns the summed write time and
// the files' bytes.
func writeSuiteStores(dir string, seed int64) (busy float64, bytes int64, err error) {
	specs, err := trace.DefaultSuite(suiteOptions(seed))
	if err != nil {
		return 0, 0, err
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
		next  atomic.Int64
	)
	for w := 0; w < suiteWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				spec := specs[i]
				path := filepath.Join(dir, spec.Name+".fstore")
				t0 := time.Now()
				_, gerr := store.Generate(context.Background(), path, suiteConfig(spec), spec.IntervalSec, store.Options{Workers: suiteGenWorkers})
				d := time.Since(t0).Seconds()
				var size int64
				if gerr == nil {
					var st os.FileInfo
					if st, gerr = os.Stat(path); gerr == nil {
						size = st.Size()
					}
				}
				mu.Lock()
				busy += d
				bytes += size
				if gerr != nil && first == nil {
					first = fmt.Errorf("store %s: %w", spec.Name, gerr)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return busy, bytes, first
}

func (b *suiteBench) rep() (repOut, error) {
	run, err := runSuite(b.options(suiteWorkers, b.stored))
	return repOut{digest: run.digest, packets: run.packets, attempted: run.intervals, failed: run.shed}, err
}

// reference renders the same seed another way, for seeds without a recorded
// golden: table1-synth at one worker (output is identical at any worker
// count), table1-store by synthesis (the store replays the exact stream).
func (b *suiteBench) reference() (string, error) {
	workers := suiteWorkers
	if !b.stored {
		workers = 1
	}
	run, err := runSuite(b.options(workers, false))
	return run.digest, err
}

// traced runs the real Runner (untraced, for the measure/render split and
// the statistics to match) and the traced rebuild of its measurement pass,
// repeated until seconds have passed, then the once-per-run probes.
func (b *suiteBench) traced(seconds float64, want string, spanPath string) (map[string]float64, error) {
	specs, err := trace.DefaultSuite(suiteOptions(b.seed))
	if err != nil {
		return nil, err
	}
	var reps []map[string]float64
	var last *tracer
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < seconds {
		ref, err := runSuite(b.options(suiteWorkers, b.stored))
		if err != nil {
			return nil, err
		}
		if ref.digest != want {
			return nil, fmt.Errorf("rendered output digest %s, want %s", ref.digest, want)
		}
		tr := newTracer(b.name)
		_, gc0 := runtimeCounters()
		pause0 := gcPauseSeconds()
		t0 := time.Now()
		pass, err := rebuildPass(tr, specs, b.storeDir, b.stored)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		_, gc1 := runtimeCounters()
		if err := matchStats(pass.stats, ref.stats); err != nil {
			return nil, err
		}
		gap, roleWall := tr.unattributed()
		if !unattributedOK(gap, roleWall) {
			return nil, fmt.Errorf("unattributed time %.3fs exceeds %.0f%% of %.3fs role wall time", gap, maxUnattributed*100, roleWall)
		}
		m := zeroLayerMetrics()
		m["trace.synth.self_s"] = tr.busy("trace.synth")
		m["store.read.self_s"] = tr.busy("store.read")
		if b.stored {
			m["store.read.pkts"] = float64(pass.pkts)
			m["store.read.bytes"] = float64(pass.pkts * storeBytesPerPacket)
		} else {
			m["trace.synth.pkts"] = float64(pass.pkts)
			m["trace.synth.blocks"] = float64(pass.blocks)
		}
		m["flow.partition.self_s"] = tr.busy("flow.partition") - tr.busy("flow.partition.handoff")
		m["flow.partition.blocks"] = float64(pass.blocks)
		m["flow.partition.handoff_wait_s"] = tr.busy("flow.partition.handoff")
		m["flow.stream.wait_s"] = tr.busy("flow.stream.wait")
		m["flow.assemble.busy_s"] = tr.busy("flow.assemble")
		m["flow.assemble.pkts"] = float64(pass.assembled)
		m["flow.flush.busy_s"] = tr.busy("flow.flush")
		m["flow.flows"] = float64(pass.flows)
		m["flow.discarded"] = float64(pass.discarded)
		m["flow.active.peak"] = float64(pass.activePeak)
		m["timeseries.bin.busy_s"] = tr.busy("timeseries.bin")
		m["timeseries.stats.busy_s"] = tr.busy("timeseries.stats")
		m["core.pop.busy_s"] = tr.busy("core.pop")
		m["core.pop.flows"] = float64(pass.popFlows)
		m["core.kernel.busy_s"] = tr.busy("core.kernel")
		m["core.fit.busy_s"] = tr.busy("core.fit")
		m["experiments.measure.busy_s"] = ref.measure
		m["experiments.render.busy_s"] = ref.render
		m["experiments.intervals"] = float64(ref.intervals)
		m["runtime.gc.cycles"] = float64(gc1 - gc0)
		m["runtime.gc.pause_s"] = gcPauseSeconds() - pause0
		m["traced.unattributed_s"] = gap
		m["traced.overhead"] = wall / ref.measure
		reps = append(reps, m)
		last = tr
	}
	out := medianMetrics(reps)
	if err := last.writeTSV(spanPath); err != nil {
		return nil, err
	}

	// Once-per-run probes.
	out["store.write.busy_s"] = b.writeBusy
	out["store.write.bytes"] = float64(b.writeBytes)
	if b.stored {
		if out["store.window.busy_s"], err = storeWindowProbe(b.storeDir, specs[0]); err != nil {
			return nil, err
		}
	} else {
		if out["trace.phase1.busy_s"], out["trace.phase1.flows"], err = phase1Probe(specs); err != nil {
			return nil, err
		}
		if out["trace.ckindex.busy_s"], out["trace.window.busy_s"], out["trace.window.pkts"], err = refWindowProbe(specs[0]); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	w1, err := runSuite(b.options(1, b.stored))
	if err != nil {
		return nil, err
	}
	out["experiments.w1.wall_s"] = time.Since(t0).Seconds()
	if w1.digest != want {
		return nil, fmt.Errorf("workers=1 output digest %s, want %s", w1.digest, want)
	}
	return out, nil
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// storeBytesPerPacket is the store's column width per packet: f64 time, two
// u64 header words, u16 size.
const storeBytesPerPacket = 26

// phase1Probe times trace.Programs — the serial phase-1 pass the synthesis
// path runs inline — once per suite trace.
func phase1Probe(specs []trace.TraceSpec) (busy, flows float64, err error) {
	for _, spec := range specs {
		t0 := time.Now()
		progs, _, err := trace.Programs(suiteConfig(spec))
		busy += time.Since(t0).Seconds()
		if err != nil {
			return 0, 0, err
		}
		flows += float64(len(progs))
	}
	return busy, flows, nil
}

// refWindowProbe times the reference trace's checkpoint-index build, then a
// replay of the reference window, as experiments.Runner.RefInterval does on
// the synthesis path.
func refWindowProbe(spec trace.TraceSpec) (ckindex, window, pkts float64, err error) {
	t0 := time.Now()
	ck, err := trace.NewCheckpoints(suiteConfig(spec), spec.IntervalSec)
	if err != nil {
		return 0, 0, 0, err
	}
	ckindex = time.Since(t0).Seconds()
	t1 := time.Now()
	win, err := ck.Window(0, spec.IntervalSec)
	if err != nil {
		return 0, 0, 0, err
	}
	for range win.Records() {
		pkts++
	}
	return ckindex, time.Since(t1).Seconds(), pkts, nil
}

// storeWindowProbe times the footer-backed reference replay of the store
// path: open the reference store, serve its checkpoint index from the
// footer, replay the reference window.
func storeWindowProbe(dir string, spec trace.TraceSpec) (float64, error) {
	t0 := time.Now()
	sr, err := store.Open(filepath.Join(dir, spec.Name+".fstore"))
	if err != nil {
		return 0, err
	}
	defer sr.Close()
	ck, err := sr.Checkpoints(suiteConfig(spec))
	if err != nil {
		return 0, err
	}
	win, err := ck.Window(0, spec.IntervalSec)
	if err != nil {
		return 0, err
	}
	n := 0
	for range win.Records() {
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("reference window of %s is empty", spec.Name)
	}
	return time.Since(t0).Seconds(), nil
}

// point is one rebuilt scatter point: the exported fields of
// experiments.IntervalStat.
type point struct {
	trace      string
	targetBps  float64
	index      int
	def        flow.Definition
	flowCount  int
	discarded  int
	measMean   float64
	measVar    float64
	measCoV    float64
	lambda     float64
	meanS      float64
	meanS2oD   float64
	modelCoV   map[int]float64
	fittedBRaw float64
}

// rebuilt is the traced pass's output and work counts.
type rebuilt struct {
	stats            [2][]point
	pkts, blocks     int64
	assembled        int64
	flows, discarded int64
	popFlows         int64
	activePeak       int64
}

type suiteTask struct {
	ti     int
	stream *flow.IntervalStream
}

// rebuildPass re-runs experiments' measurement pass from public calls with
// the same specs, configuration, sub-stream buffer, in-flight cap and worker
// counts — source → interval partitioner → two interval workers (binner,
// measurer, flush, flow population, kernels, fit) — timing every call.
func rebuildPass(tr *tracer, specs []trace.TraceSpec, storeDir string, stored bool) (rebuilt, error) {
	var out rebuilt
	var kernels [3]*core.AvgVarKernel
	for b := range kernels {
		k, err := core.NewAvgVarKernel(b, suiteDelta)
		if err != nil {
			return out, err
		}
		kernels[b] = k
	}
	ctx := context.Background()
	workers, producers := suiteWorkers, suiteWorkers
	if producers > len(specs) {
		producers = len(specs)
	}
	slots := make([][][2]*point, len(specs))
	total := 0
	for ti, spec := range specs {
		slots[ti] = make([][2]*point, spec.Intervals)
		total += spec.Intervals
	}
	tasks := make(chan suiteTask, total)
	inflight := make(chan struct{}, 2*(workers+producers))

	var (
		errMu    sync.Mutex
		firstErr error
		pkts     atomic.Int64
		blocks   atomic.Int64
		asm      atomic.Int64
		flows    atomic.Int64
		disc     atomic.Int64
		popFlows atomic.Int64
		peak     atomic.Int64
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	var wwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		meas, err := flow.NewMeasurer(suiteDefs, flow.DefaultTimeout)
		if err != nil {
			return out, err
		}
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			rl := tr.role("worker")
			defer rl.done()
			binner := &timeseries.Binner{}
			pop := &core.FlowPop{}
			mark := rl.now()
			for {
				tk, ok := <-tasks
				if !ok {
					rl.since("flow.stream.wait", 0, -1, -1, mark)
					return
				}
				spec := specs[tk.ti]
				is := tk.stream
				ti, idx := tk.ti, is.Index
				mark = rl.since("flow.stream.wait", 0, ti, idx, mark)

				if err := binner.Reinit(spec.IntervalSec, suiteDelta); err != nil {
					fail(err)
				}
				mark = rl.since("timeseries.bin", 0, ti, idx, mark)
				meas.Reset()
				mark = rl.since("flow.flush", 0, ti, idx, mark)
				var addErr error
				var n int64
				for blk := range is.Blocks() {
					t1 := rl.now()
					rl.span("flow.stream.wait", 0, ti, idx, mark, t1)
					mark = t1
					if addErr != nil {
						continue
					}
					binner.AddBlock(blk)
					mark = rl.since("timeseries.bin", 0, ti, idx, mark)
					addErr = meas.AddBlock(blk)
					n += int64(blk.Len())
					mark = rl.since("flow.assemble", 0, ti, idx, mark)
				}
				mark = rl.since("flow.stream.wait", 0, ti, idx, mark)
				asm.Add(n)
				if addErr != nil {
					fail(fmt.Errorf("%s interval %d: %w", spec.Name, idx, addErr))
					<-inflight
					continue
				}
				storeMax(&peak, int64(meas.ActiveFlows(0)))
				results := meas.Flush()
				mark = rl.since("flow.flush", 0, ti, idx, mark)
				for di := range suiteDefs {
					flows.Add(int64(len(results[di].Flows)))
					disc.Add(int64(len(results[di].Discarded)))
				}
				for di, def := range suiteDefs {
					res := results[di]
					if len(res.Flows) < minIntervalFlows {
						continue
					}
					var p *point
					p, mark = intervalPoint(rl, mark, spec, ti, idx, def, res, binner, pop, &kernels)
					if p != nil {
						popFlows.Add(int64(pop.Len()))
						slots[ti][idx][di] = p
					}
				}
				<-inflight
			}
		}()
	}

	tis := make(chan int)
	var pwg sync.WaitGroup
	for w := 0; w < producers; w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			rl := tr.role("producer")
			defer rl.done()
			src := "trace.synth"
			if stored {
				src = "store.read"
			}
			for ti := range tis {
				if err := produce(ctx, rl, src, ti, specs[ti], storeDir, stored, tasks, inflight, &pkts, &blocks); err != nil {
					fail(fmt.Errorf("%s: %w", specs[ti].Name, err))
				}
			}
		}()
	}
	for ti := range specs {
		tis <- ti
	}
	close(tis)
	pwg.Wait()
	close(tasks)
	wwg.Wait()
	if firstErr != nil {
		return out, firstErr
	}
	for di := range suiteDefs {
		for ti := range specs {
			for _, s := range slots[ti] {
				if s[di] != nil {
					out.stats[di] = append(out.stats[di], *s[di])
				}
			}
		}
	}
	out.pkts, out.blocks = pkts.Load(), blocks.Load()
	out.assembled = asm.Load()
	out.flows, out.discarded = flows.Load(), disc.Load()
	out.popFlows, out.activePeak = popFlows.Load(), peak.Load()
	return out, nil
}

// produce streams one trace through an interval partitioner, handing each
// interval's sub-stream to the workers as it opens.
func produce(ctx context.Context, rl *role, src string, ti int, spec trace.TraceSpec, storeDir string, stored bool,
	tasks chan<- suiteTask, inflight chan struct{}, pkts, blocks *atomic.Int64) error {
	cfg := suiteConfig(spec)
	part, err := flow.NewIntervalPartitioner(spec.IntervalSec, cfg.Duration, suiteBuffer, func(is *flow.IntervalStream) error {
		t := rl.now()
		inflight <- struct{}{}
		tasks <- suiteTask{ti: ti, stream: is}
		rl.since("flow.partition.handoff", 1, ti, is.Index, t)
		return nil
	})
	if err != nil {
		return err
	}
	if err := part.SetContext(ctx); err != nil {
		return err
	}
	mark := rl.now()
	sink := func(blk *trace.Block) error {
		t := rl.now()
		rl.span(src, 0, ti, -1, mark, t)
		n := blk.Len()
		err := part.AddBlock(blk)
		mark = rl.since("flow.partition", 0, ti, -1, t)
		pkts.Add(int64(n))
		blocks.Add(1)
		return err
	}
	if stored {
		err = streamStore(ctx, filepath.Join(storeDir, spec.Name+".fstore"), cfg, sink)
	} else {
		_, err = trace.StreamParallelBlocksCtx(ctx, cfg, suiteGenWorkers, sink)
	}
	mark = rl.since(src, 0, ti, -1, mark)
	if err != nil {
		part.Abort()
		return err
	}
	err = part.Close()
	rl.since("flow.partition", 0, ti, -1, mark)
	return err
}

// streamStore replays one suite trace's store through sink after checking
// it was generated with cfg.
func streamStore(ctx context.Context, path string, cfg trace.Config, sink func(*trace.Block) error) error {
	sr, err := store.Open(path)
	if err != nil {
		return err
	}
	defer sr.Close()
	m := sr.Meta()
	if m.Seed != cfg.Seed || m.Duration != cfg.Duration || m.Warmup != cfg.Warmup || m.Lambda != cfg.Lambda {
		return fmt.Errorf("store %s does not match the suite configuration", path)
	}
	return sr.Stream(ctx, 0, sink)
}

// intervalPoint computes one scatter point from an interval's flows and a
// copy of its rate series, exactly as the measurement pass does. A sparse or
// degenerate interval yields nil.
func intervalPoint(rl *role, mark int64, spec trace.TraceSpec, ti, idx int, def flow.Definition, res flow.Result,
	binner *timeseries.Binner, pop *core.FlowPop, kernels *[3]*core.AvgVarKernel) (*point, int64) {
	series := binner.Series()
	series.Subtract(res.Discarded)
	mean, variance, cov := series.Mean(), series.Variance(), series.CoV()
	mark = rl.since("timeseries.stats", 0, ti, idx, mark)
	in, err := core.InputFromFlowsPop(pop, res.Flows, spec.IntervalSec)
	mark = rl.since("core.pop", 0, ti, idx, mark)
	if err != nil {
		return nil, mark
	}
	p := &point{
		trace:     spec.Name,
		targetBps: spec.TargetBps,
		index:     idx,
		def:       def,
		flowCount: len(res.Flows),
		discarded: len(res.Discarded),
		measMean:  mean,
		measVar:   variance,
		measCoV:   cov,
		lambda:    in.Lambda,
		meanS:     in.MeanS,
		meanS2oD:  in.MeanS2OverD,
		modelCoV:  map[int]float64{},
	}
	mu := in.Lambda * in.MeanS
	for b, k := range kernels {
		v, err := k.AveragedVariance(in.Lambda, pop)
		if err != nil {
			return nil, rl.since("core.kernel", 0, ti, idx, mark)
		}
		if mu > 0 {
			p.modelCoV[b] = math.Sqrt(v) / mu
		}
	}
	mark = rl.since("core.kernel", 0, ti, idx, mark)
	if b, _, err := core.FitPowerB(p.measVar, in.Lambda, in.MeanS2OverD); err == nil {
		p.fittedBRaw = b
	}
	return p, rl.since("core.fit", 0, ti, idx, mark)
}

// matchStats requires the rebuilt points to equal Runner.Stats bit for bit
// under both definitions; otherwise the traced run timed another program.
func matchStats(got [2][]point, want [2][]experiments.IntervalStat) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for di := range suiteDefs {
		if len(got[di]) != len(want[di]) {
			return fmt.Errorf("%v: rebuilt %d points, Runner.Stats has %d", suiteDefs[di], len(got[di]), len(want[di]))
		}
		for i, w := range want[di] {
			g := got[di][i]
			ok := g.trace == w.Trace && same(g.targetBps, w.TargetBps) && g.index == w.Index && g.def == w.Def &&
				g.flowCount == w.FlowCount && g.discarded == w.Discarded &&
				same(g.measMean, w.MeasMean) && same(g.measVar, w.MeasVar) && same(g.measCoV, w.MeasCoV) &&
				same(g.lambda, w.Lambda) && same(g.meanS, w.MeanS) && same(g.meanS2oD, w.MeanS2oD) &&
				same(g.fittedBRaw, w.FittedBRaw) && len(g.modelCoV) == len(w.ModelCoV)
			for b, v := range w.ModelCoV {
				gv, has := g.modelCoV[b]
				ok = ok && has && same(gv, v)
			}
			if !ok {
				return fmt.Errorf("%v: rebuilt point %s/%d differs from Runner.Stats", suiteDefs[di], w.Trace, w.Index)
			}
		}
	}
	return nil
}
