package repro

// Benchmark harness: one benchmark per table and figure of the paper
// (`experiments -list` prints the experiment ids). Each benchmark
// regenerates its artefact end to end — trace synthesis, flow measurement,
// model evaluation — on a reduced-scale suite so a full `go test -bench=.`
// pass stays in the minutes range; cmd/experiments runs the same code at
// full scale.
//
// Reported metrics (b.ReportMetric) carry the headline number of each
// artefact so a benchmark log doubles as a regression record of the
// reproduction quality.

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/rng"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/netpkt"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// benchOptions is the reduced scale shared by the suite-wide benchmarks.
func benchOptions() experiments.Options {
	return experiments.Options{
		Suite: trace.SuiteOptions{
			LinkBps:          20e6,
			IntervalSec:      30,
			IntervalsPerHour: 0.3,
			MaxIntervals:     2,
		},
		Quiet: true,
	}
}

func newBenchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	r, err := experiments.NewRunner(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// runExperiment wraps the common loop.
func runExperiment(b *testing.B, fn func(*experiments.Runner) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if err := fn(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1TraceSuite(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Table1(io.Discard) })
}

// BenchmarkMeasureSuiteWorkers scales the measurement pass's two-level
// worker pool, isolating the parallel speedup of the streaming pipeline
// (the determinism test guarantees the outputs are identical).
func BenchmarkMeasureSuiteWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := benchOptions()
				opts.Workers = workers
				r, err := experiments.NewRunner(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Table1(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLongTraceWorkers scales the pool on the long-trace scenario that
// motivates intra-trace sharding: interval counts are uncapped, so the
// 39.5 h trace carries ~4× the intervals of the median trace and
// trace-granular parallelism tops out at 7 workers with the longest trace
// as the critical path. Scaling beyond workers=7 (visible on machines with
// more cores; this suite has ~34 interval tasks) is entirely the interval
// level of the scheduler. Single-core runs record the scheduling overhead
// instead.
func BenchmarkLongTraceWorkers(b *testing.B) {
	counts := []int{1, 4, 7}
	if n := runtime.GOMAXPROCS(0); n > 7 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := benchOptions()
				opts.Suite.MaxIntervals = 0 // paper-proportional interval counts
				opts.Workers = workers
				r, err := experiments.NewRunner(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Table1(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1FlowSplitting(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Fig1(io.Discard) })
}

func BenchmarkFig3InterArrivals5Tuple(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Fig3(io.Discard) })
}

func BenchmarkFig4InterArrivalsPrefix(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Fig4(io.Discard) })
}

func BenchmarkFig5SizeDurationACF(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Fig5(io.Discard) })
}

func BenchmarkFig6SizeDurationACFPrefix(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Fig6(io.Discard) })
}

func BenchmarkFig7ShotShapes(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Fig7(io.Discard) })
}

// BenchmarkFig8AutoCorrelation times Fig 8's model alone: the runner and
// its reference interval are built and measured before the timer starts,
// so an iteration is the population passes of the autocorrelation curves.
func BenchmarkFig8AutoCorrelation(b *testing.B) {
	r := newBenchRunner(b)
	if _, _, err := r.RefInterval(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Fig8(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// scatterBench runs a CoV scatter figure and reports the share of intervals
// within the paper's ±20% band.
func scatterBench(b *testing.B, def flow.Definition, shotB int, fig func(*experiments.Runner) error) {
	b.Helper()
	var within, total float64
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if err := fig(r); err != nil {
			b.Fatal(err)
		}
		sts, err := r.Stats(def)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sts {
			model := s.ModelCoV[shotB]
			if s.MeasCoV == 0 || model == 0 {
				continue
			}
			total++
			if math.Abs(model-s.MeasCoV)/s.MeasCoV <= 0.20 {
				within++
			}
		}
	}
	if total > 0 {
		b.ReportMetric(100*within/total, "%within20")
	}
}

func BenchmarkFig9CoVTriangular(b *testing.B) {
	scatterBench(b, flow.By5Tuple, 1, func(r *experiments.Runner) error { return r.Fig9(io.Discard) })
}

func BenchmarkFig10CoVParabolic(b *testing.B) {
	scatterBench(b, flow.By5Tuple, 2, func(r *experiments.Runner) error { return r.Fig10(io.Discard) })
}

func BenchmarkFig11PowerFit(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Fig11(io.Discard) })
}

func BenchmarkFig12CoVRectPrefix(b *testing.B) {
	scatterBench(b, flow.ByPrefix24, 0, func(r *experiments.Runner) error { return r.Fig12(io.Discard) })
}

func BenchmarkFig13CoVTriPrefix(b *testing.B) {
	scatterBench(b, flow.ByPrefix24, 1, func(r *experiments.Runner) error { return r.Fig13(io.Discard) })
}

func BenchmarkTable2Prediction(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error {
		// A shorter prediction trace than the 1800 s default keeps the
		// bench tight while exercising every ℓ.
		return r.Table2(io.Discard, 600, 1)
	})
}

func BenchmarkFig14PredictionSeries(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.Fig14(io.Discard, 600, 1) })
}

func BenchmarkAppADimensioning(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.AppA(io.Discard) })
}

func BenchmarkAppCGenerator(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.AppC(io.Discard, 2) })
}

func BenchmarkAblationShots(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.AblationShots(io.Discard) })
}

func BenchmarkAblationBaseline(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.AblationBaseline(io.Discard) })
}

func BenchmarkAblationDelta(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.AblationDelta(io.Discard) })
}

func BenchmarkAblationSplit(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.AblationSplit(io.Discard) })
}

func BenchmarkAblationSmoothing(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.AblationSmoothing(io.Discard) })
}

func BenchmarkAblationLRD(b *testing.B) {
	runExperiment(b, func(r *experiments.Runner) error { return r.AblationLRD(io.Discard) })
}

// --- Component micro-benchmarks (hot paths of the pipeline) ---

func benchTraceConfig() trace.Config {
	size, _ := dist.NewBoundedPareto(1.3, 1500, 3e5)
	rate, _ := dist.LognormalFromMoments(80e3, 1.5)
	return trace.Config{
		Duration:  30,
		Lambda:    300,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Uniform{Lo: 1.5, Hi: 2.5},
		Warmup:    30,
		Seed:      11,
	}
}

// BenchmarkSamplers measures the per-draw cost of the suite's flow-attribute
// laws through the batched face phase 1 uses (256-draw blocks on the rng
// core). ns/op is per draw.
func BenchmarkSamplers(b *testing.B) {
	size, _ := dist.NewBoundedPareto(1.3, 1500, 3e5)
	rate, _ := dist.LognormalFromMoments(80e3, 1.5)
	exp, _ := dist.NewExponential(1)
	mix, _ := dist.NewMixture([]float64{7, 3}, []dist.Sampler{size, rate})
	cases := []struct {
		name string
		s    dist.Sampler
	}{
		{"uniform", dist.Uniform{Lo: 1.5, Hi: 2.5}},
		{"exponential", exp},
		{"boundedpareto", size},
		{"lognormal", rate},
		{"mixture", mix},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(1)
			var buf [256]float64
			for n := 0; n < b.N; n += len(buf) {
				k := len(buf)
				if rem := b.N - n; rem < k {
					k = rem
				}
				dist.SampleN(c.s, buf[:k], r)
			}
		})
	}
}

// BenchmarkProgramsPhase1 isolates the serial RNG-only flow-program pass —
// the floor every -genworkers scaling pushes against.
func BenchmarkProgramsPhase1(b *testing.B) {
	cfg := benchTraceConfig()
	var flows int64
	for i := 0; i < b.N; i++ {
		progs, _, err := trace.Programs(cfg)
		if err != nil {
			b.Fatal(err)
		}
		flows += int64(len(progs))
	}
	b.ReportMetric(float64(flows)/float64(b.N), "flows/op")
}

// benchBlocks synthesises cfg's trace serially into owned blocks of up to
// trace.BlockSize packets.
func benchBlocks(b *testing.B, cfg trace.Config) []*trace.Block {
	b.Helper()
	var out []*trace.Block
	if _, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, func(blk *trace.Block) error {
		own := &trace.Block{}
		own.AppendRebased(blk, 0, blk.Len(), 0)
		out = append(out, own)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return out
}

// benchFlows measures the benchmark trace's 5-tuple flows.
func benchFlows(b *testing.B) flow.Result {
	b.Helper()
	m, err := flow.NewMeasurer([]flow.Definition{flow.By5Tuple}, flow.DefaultTimeout)
	if err != nil {
		b.Fatal(err)
	}
	for _, blk := range benchBlocks(b, benchTraceConfig()) {
		if err := m.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	return m.Flush()[0]
}

func BenchmarkTraceGeneration(b *testing.B) {
	var pkts int64
	for i := 0; i < b.N; i++ {
		sum, err := trace.StreamParallelBlocksCtx(context.Background(), benchTraceConfig(), 1, func(*trace.Block) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		pkts += sum.Packets
	}
	b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
}

// BenchmarkTraceGenerationSharded scales the two-phase generator's synthesis
// pool on the component generation benchmark (the determinism tests
// guarantee the packet stream is bit-identical at every count, so this
// isolates pure scheduling cost/speedup). genworkers=1 is the serial
// event-heap generator. Single-core containers record the sharding overhead
// instead of a speedup; see README for the recorded numbers.
func BenchmarkTraceGenerationSharded(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("genworkers=%d", workers), func(b *testing.B) {
			var pkts int64
			for i := 0; i < b.N; i++ {
				n := int64(0)
				sum, err := trace.StreamParallelBlocksCtx(context.Background(), benchTraceConfig(), workers, func(blk *trace.Block) error {
					n += int64(blk.Len())
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if n != sum.Packets {
					b.Fatalf("streamed %d packets, summary says %d", n, sum.Packets)
				}
				pkts += sum.Packets
			}
			b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
		})
	}
}

// BenchmarkWindowReplayDeepOffset measures replaying a 5 s window near the
// end of a 300 s trace: the checkpointed replay jumps to the nearest
// checkpoint and fast-forwards only the overlapping flows (O(window +
// active flows)). The checkpoint index build is a one-off per trace and is
// measured separately.
func BenchmarkWindowReplayDeepOffset(b *testing.B) {
	cfg := benchTraceConfig()
	cfg.Duration = 300
	lo, hi := cfg.Duration-10, cfg.Duration-5
	drain := func(b *testing.B, w trace.Window) {
		n := 0
		for range w.Records() {
			n++
		}
		if n == 0 {
			b.Fatal("window empty")
		}
	}
	b.Run("checkpointed", func(b *testing.B) {
		ck, err := trace.NewCheckpoints(cfg, 30)
		if err != nil {
			b.Fatal(err)
		}
		w, err := ck.Window(lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			drain(b, w)
		}
	})
	b.Run("index-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := trace.NewCheckpoints(cfg, 30); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreWrite measures synthesising a trace straight into the store
// format, per full-trace write.
func BenchmarkStoreWrite(b *testing.B) {
	cfg := benchTraceConfig()
	dir := b.TempDir()
	var pkts int64
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("w%d.fstore", i))
		sum, err := store.Generate(context.Background(), path, cfg, 0, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pkts = sum.Packets
	}
	b.ReportMetric(float64(pkts), "pkts/op")
}

// BenchmarkAssemblerBlock isolates the flow-assembly hot path: a hash
// column derived once per block, then one table probe per packet under the
// finest definition. block runs the suite's two definitions, the /24 flows
// merged from the 5-tuple flows at flush; 5tuple runs the 5-tuple alone,
// as flowd measures. Both keep
// the table small enough for a 2 MB L2 cache; wide runs the two
// definitions over a 60 s trace at λ = 700 flows/s, like the suite's
// trace 1, whose 5-tuple table peaks above 40,000 open flows. ns/op is per
// trace pass; pkts/op records the stream length and flows the 5-tuple
// table's open flows at the end of the pass.
func BenchmarkAssemblerBlock(b *testing.B) {
	wide := benchTraceConfig()
	wide.Duration, wide.Lambda = 60, 700
	base, wideBlocks := benchBlocks(b, benchTraceConfig()), benchBlocks(b, wide)
	suite := []flow.Definition{flow.By5Tuple, flow.ByPrefix24}
	for _, bc := range []struct {
		name   string
		defs   []flow.Definition
		blocks []*trace.Block
	}{
		{"block", suite, base},
		{"5tuple", []flow.Definition{flow.By5Tuple}, base},
		{"wide", suite, wideBlocks},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pkts := 0
			for _, blk := range bc.blocks {
				pkts += blk.Len()
			}
			m, err := flow.NewMeasurer(bc.defs, flow.DefaultTimeout)
			if err != nil {
				b.Fatal(err)
			}
			open := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				for _, blk := range bc.blocks {
					if err := m.AddBlock(blk); err != nil {
						b.Fatal(err)
					}
				}
				open = m.ActiveFlows(0)
				m.Flush()
			}
			b.ReportMetric(float64(pkts), "pkts/op")
			b.ReportMetric(float64(open), "flows")
		})
	}
}

// BenchmarkAssemblerFlush isolates one interval's flush: 6,000
// two-packet flows starting across a 30 s interval, all still open, so
// the flush finalises them in slab order and returns them in start
// order. ns/op and allocs/op are per flush; the measurer's storage is
// warm after the first interval.
func BenchmarkAssemblerFlush(b *testing.B) {
	const flows, interval = 6000, 30.0
	r := rng.New(1)
	type pkt struct {
		t        float64
		src, dst uint64
	}
	pkts := make([]pkt, 0, 2*flows)
	for k := range flows {
		src, dst := netpkt.Header{
			SrcIP:    netpkt.IPv4Addr{10, 0, byte(k >> 8), byte(k)},
			DstIP:    netpkt.IPv4Addr{172, 16, 0, 1},
			Protocol: netpkt.ProtoTCP,
			SrcPort:  1000,
			DstPort:  80,
		}.Packed()
		start := r.Float64() * interval
		pkts = append(pkts, pkt{start, src, dst}, pkt{start + r.Float64()*(interval-start), src, dst})
	}
	slices.SortFunc(pkts, func(x, y pkt) int { return cmp.Compare(x.t, y.t) })
	blk := &trace.Block{}
	for _, p := range pkts {
		blk.Append(p.t, 500, p.src, p.dst)
	}
	m, err := flow.NewMeasurer([]flow.Definition{flow.By5Tuple}, flow.DefaultTimeout)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Reset()
		if err := m.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if got := len(m.Flush()[0].Flows); got != flows {
			b.Fatalf("flushed %d flows, want %d", got, flows)
		}
	}
	b.ReportMetric(flows, "flows/op")
}

func BenchmarkModelVariance(b *testing.B) {
	in, err := core.InputFromFlows(benchFlows(b).Flows, 30)
	if err != nil {
		b.Fatal(err)
	}
	m, err := in.Model(core.Parabolic)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Variance()
	}
	b.ReportMetric(float64(m.Pop.Len()), "flows/op")
}

func BenchmarkModelAveragedVariance(b *testing.B) {
	in, err := core.InputFromFlows(benchFlows(b).Flows, 30)
	if err != nil {
		b.Fatal(err)
	}
	m, err := in.Model(core.Triangular)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AveragedVariance(0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelAutoCorrelation evaluates the Theorem 2 auto-correlation
// at one lag, Figure 8's and the §VII-C generator's curve: b = 2 takes
// CrossCov's closed form, b = 2.95 (the exponent examples/trafficgen fits)
// its graded Gauss–Legendre integral per flow.
func BenchmarkModelAutoCorrelation(b *testing.B) {
	in, err := core.InputFromFlows(benchFlows(b).Flows, 30)
	if err != nil {
		b.Fatal(err)
	}
	for _, exp := range []float64{2, 2.95} {
		m, err := in.Model(core.PowerShot{B: exp})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("b=%g", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.AutoCorrelation(0.2)
			}
			b.ReportMetric(float64(m.Pop.Len()), "flows/op")
		})
	}
}

// BenchmarkModelSuite mirrors the per-interval model work of the Table I
// measurement pass: columnar input assembly into a pooled population, the
// three shot-shape eq.(7) kernels, and the §V-D exponent fit.
func BenchmarkModelSuite(b *testing.B) {
	res := benchFlows(b)
	var kernels [3]*core.AvgVarKernel
	for bb := range kernels {
		k, err := core.NewAvgVarKernel(bb, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		kernels[bb] = k
	}
	pop := &core.FlowPop{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := core.InputFromFlowsPop(pop, res.Flows, 30)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range kernels {
			if _, err := k.AveragedVariance(in.Lambda, pop); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := core.FitPowerB(in.Lambda*in.MeanS2OverD, in.Lambda, in.MeanS2OverD); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pop.Len()), "flows/op")
}

// BenchmarkServiceIngest measures the flowd daemon's steady-state ingest
// path: one epoch of the benchmark trace streamed through a supervised
// link — owned-block queueing, 5-tuple flows measured per block,
// interval closing with the incremental model refit. plain and
// checkpointed synthesise the epoch as the link's producer, without and
// with per-interval checkpointing (snapshot encode + fsync + rename per
// interval); synthesis costs several times the measurement, so the
// consumer never waits on them. replay reads the epoch from a trace store,
// a producer far cheaper than the measurement, so it shows the cost of
// handing blocks across the queue. ns/op is per epoch; pkts/op records the
// stream length.
func BenchmarkServiceIngest(b *testing.B) {
	base := benchTraceConfig()
	// ckptDir, when set, gets a fresh checkpoint store per run: a run
	// resumed from its predecessor's end-of-stream checkpoint measures
	// nothing.
	run := func(b *testing.B, src service.BlockSource, ckptDir string) {
		var pkts int64
		for i := 0; i < b.N; i++ {
			var store *snapshot.Store
			if ckptDir != "" {
				var err error
				if store, err = snapshot.OpenStore(filepath.Join(ckptDir, fmt.Sprint(i))); err != nil {
					b.Fatal(err)
				}
			}
			link, err := service.NewLink(service.LinkConfig{
				Name:   "bench",
				Source: src,
				Pipeline: service.PipelineConfig{
					IntervalSec: 10,
					Delta:       0.2,
				},
				Store: store,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := link.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			pkts += link.Stats().Packets
		}
		b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
	}
	synth := &service.SyntheticSource{Base: base, Epochs: 1}
	b.Run("plain", func(b *testing.B) { run(b, synth, "") })
	b.Run("checkpointed", func(b *testing.B) { run(b, synth, b.TempDir()) })
	b.Run("replay", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "epoch.fstore")
		if _, err := store.Generate(context.Background(), path, base, 0, store.Options{}); err != nil {
			b.Fatal(err)
		}
		rd, err := store.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
		b.ResetTimer()
		run(b, &service.ReplaySource{Reader: rd, Epochs: 1}, "")
	})
}
