package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// The flowd-replay workload replays one stored 300 s epoch (λ = 100 flows/s,
// parabolic shots, flowd's synthetic defaults) 40 times through one link:
// 10 s intervals at Δ = 0.2 s, about 1200 interval closes per run.
const (
	replayEpoch       = 300.0
	replayEpochs      = 40
	replayLambda      = 100
	replayShotB       = 2
	replayMeanRateBps = 283e3
	replayIntervalSec = 10
	replayDelta       = 0.2
	replayIntervals   = int(replayEpoch * replayEpochs / replayIntervalSec)
)

// replayConfig is the generator configuration of the replayed epoch.
func replayConfig(seed int64) (trace.Config, error) {
	size, err := trace.FlowSizeDist()
	if err != nil {
		return trace.Config{}, err
	}
	rate, err := trace.FlowRateDist(replayMeanRateBps)
	if err != nil {
		return trace.Config{}, err
	}
	return trace.Config{
		Duration:  replayEpoch,
		Lambda:    replayLambda,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: replayShotB},
		Seed:      seed,
	}, nil
}

// pipelineConfig is the link's pipeline configuration (flowd's defaults at
// the workload's interval and Δ).
func pipelineConfig(onInterval func(service.Report) error) service.PipelineConfig {
	return service.PipelineConfig{IntervalSec: replayIntervalSec, Delta: replayDelta, OnInterval: onInterval}
}

// reportDigest hashes the ordered Report sequence with exact float bits.
type reportDigest struct {
	h   hash.Hash
	n   int
	buf []byte
}

func newReportDigest() *reportDigest { return &reportDigest{h: sha256.New()} }

func (d *reportDigest) add(r service.Report) {
	b := d.buf[:0]
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	u(uint64(r.Index))
	f(r.Start)
	flag(r.Partial)
	u(uint64(r.Flows))
	u(uint64(r.Discarded))
	u(uint64(r.Packets))
	f(r.MeasMean)
	f(r.MeasVar)
	f(r.MeasCoV)
	f(r.Lambda)
	f(r.MeanS)
	f(r.MeanS2oD)
	f(r.FittedB)
	flag(r.FitOK)
	u(uint64(len(r.Anomalies)))
	for _, e := range r.Anomalies {
		u(uint64(e.StartBin))
		u(uint64(e.EndBin))
		u(uint64(e.Direction))
		f(e.Peak)
	}
	f(r.Predicted)
	flag(r.HasPrediction)
	d.h.Write(b)
	d.buf = b
	d.n++
}

func (d *reportDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// timedSource wraps the link's BlockSource. Untraced it reads the clock once
// per block, to stamp when each interval's boundary was handed to the link;
// traced it also records the source's own time and the time spent handing
// blocks to the link's queue.
type timedSource struct {
	inner service.BlockSource
	clock func() int64
	tr    *tracer // nil: untraced

	handed []int64 // handed[i]: when the first block past interval i's end was handed over
	next   int     // first interval whose boundary has not been handed over
	blocks int64   // non-empty blocks handed over
}

func (s *timedSource) Stream(ctx context.Context, cur service.Cursor, fn func(int64, *trace.Block) error) error {
	rl := s.tr.role("source")
	defer rl.done()
	mark := s.clock()
	err := s.inner.Stream(ctx, cur, func(epoch int64, blk *trace.Block) error {
		t := s.clock()
		if n := blk.Len(); n > 0 {
			s.blocks++
			for idx := int(blk.Times[n-1] / replayIntervalSec); s.next < idx; s.next++ {
				if s.next < len(s.handed) {
					s.handed[s.next] = t
				}
			}
		}
		if rl == nil {
			return fn(epoch, blk)
		}
		rl.span("service.source", 0, int(epoch), -1, mark, t)
		err := fn(epoch, blk)
		mark = s.clock()
		rl.span("service.queue", 0, int(epoch), -1, t, mark)
		return err
	})
	if rl != nil {
		rl.span("service.source", 0, -1, -1, mark, s.clock())
	}
	return err
}

// linkRun is one run of the link over the replayed store.
type linkRun struct {
	digest string
	stats  service.LinkStats
	handed int64     // blocks the source handed over
	lagsMs []float64 // interval-close lag per closed interval
}

// runLink runs one service.Link over a ReplaySource of rd until the source
// is exhausted, checkpointing into st when non-nil. tr, when non-nil,
// traces the source wrapper.
func runLink(rd *store.Reader, st *snapshot.Store, tr *tracer) (linkRun, error) {
	var out linkRun
	origin := time.Now()
	src := &timedSource{
		inner:  &service.ReplaySource{Reader: rd, Duration: replayEpoch, Epochs: replayEpochs},
		clock:  func() int64 { return int64(time.Since(origin)) },
		handed: make([]int64, replayIntervals),
	}
	if tr != nil {
		src.clock, src.tr = tr.now, tr
	}
	dg := newReportDigest()
	lags := make([]float64, 0, replayIntervals)
	link, err := service.NewLink(service.LinkConfig{
		Name:   "perfbench",
		Source: src,
		Pipeline: pipelineConfig(func(r service.Report) error {
			if !r.Partial && r.Index < len(src.handed) {
				lags = append(lags, float64(src.clock()-src.handed[r.Index])/1e6)
			}
			dg.add(r)
			return nil
		}),
		Store: st,
	})
	if err != nil {
		return out, err
	}
	err = link.Run(context.Background())
	out.digest, out.stats, out.handed, out.lagsMs = dg.sum(), link.Stats(), src.blocks, lags
	return out, err
}

// flowdBench is the flowd-replay workload. Its timed runs do not
// checkpoint (flowd's default); its traced run checkpoints after every
// interval close into ckptDir, to measure the snapshot layer.
type flowdBench struct {
	name      string
	seed      int64
	storePath string
	ckptDir   string

	rd         *store.Reader
	writeBusy  float64
	writeBytes int64
}

func (b *flowdBench) goldenKey() string { return "flowd" }

func (b *flowdBench) close() {
	if b.rd != nil {
		b.rd.Close()
		b.rd = nil
	}
}

// setup writes the replay store and opens it.
func (b *flowdBench) setup() error {
	b.close()
	cfg, err := replayConfig(b.seed)
	if err != nil {
		return err
	}
	if err := os.Remove(b.storePath); err != nil && !os.IsNotExist(err) {
		return err
	}
	t0 := time.Now()
	if _, err := store.Generate(context.Background(), b.storePath, cfg, 0, store.Options{}); err != nil {
		return err
	}
	b.writeBusy = time.Since(t0).Seconds()
	st, err := os.Stat(b.storePath)
	if err != nil {
		return err
	}
	b.writeBytes = st.Size()
	b.rd, err = store.Open(b.storePath)
	return err
}

// checkpointStore empties the checkpoint directory and opens it.
func (b *flowdBench) checkpointStore() (*snapshot.Store, error) {
	if err := os.RemoveAll(b.ckptDir); err != nil {
		return nil, err
	}
	return snapshot.OpenStore(b.ckptDir)
}

func (b *flowdBench) rep() (repOut, error) {
	run, err := runLink(b.rd, nil, nil)
	return repOut{
		digest:    run.digest,
		packets:   run.stats.Packets,
		attempted: run.handed,
		failed:    run.handed - run.stats.Blocks, // shed, or lost to a link error
		lagsMs:    run.lagsMs,
	}, err
}

// reference derives the report digest another way, for seeds without a
// recorded golden: the Pipeline driven directly over the store (no link, no
// queue).
func (b *flowdBench) reference() (string, error) {
	d, err := driveDirect(b.rd, nil, nil)
	return d.digest, err
}

// traced runs, until seconds have passed: the untraced link (for overhead
// and close lag), the link with a traced source wrapper, and the Pipeline
// driven directly with a traced rebuild of its layers and Pipeline.Snapshot
// + Store.Save after every interval close.
func (b *flowdBench) traced(seconds float64, want string, spanPath string) (map[string]float64, error) {
	var reps []map[string]float64
	var last *tracer
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		plain, err := runLink(b.rd, nil, nil)
		plainWall := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		if plain.digest != want {
			return nil, fmt.Errorf("report digest %s, want %s", plain.digest, want)
		}

		tr := newTracer(b.name)
		_, gc0 := runtimeCounters()
		pause0 := gcPauseSeconds()
		t1 := time.Now()
		linked, err := runLink(b.rd, nil, tr)
		linkedWall := time.Since(t1).Seconds()
		if err != nil {
			return nil, err
		}
		st, err := b.checkpointStore()
		if err != nil {
			return nil, err
		}
		direct, err := driveDirect(b.rd, st, tr)
		if err != nil {
			return nil, err
		}
		_, gc1 := runtimeCounters()
		for what, d := range map[string]string{"traced link": linked.digest, "direct pipeline": direct.digest} {
			if d != want {
				return nil, fmt.Errorf("%s report digest %s, want %s", what, d, want)
			}
		}
		gap, roleWall := tr.unattributed()
		if !unattributedOK(gap, roleWall) {
			return nil, fmt.Errorf("unattributed time %.3fs exceeds %.0f%% of %.3fs role wall time", gap, maxUnattributed*100, roleWall)
		}
		p50, err := percentile(plain.lagsMs, 0.5)
		if err != nil {
			return nil, err
		}
		p99, err := percentile(plain.lagsMs, 0.99)
		if err != nil {
			return nil, err
		}
		lay := direct.layers
		m := zeroLayerMetrics()
		m["store.read.self_s"] = tr.busy("store.read")
		m["store.read.pkts"] = float64(direct.pkts)
		m["store.read.bytes"] = float64(direct.pkts * storeBytesPerPacket)
		m["flow.assemble.busy_s"] = tr.busy("flow.assemble")
		m["flow.assemble.pkts"] = float64(lay.assembled)
		m["flow.flush.busy_s"] = tr.busy("flow.flush")
		m["flow.flows"] = float64(lay.flows)
		m["flow.discarded"] = float64(lay.discarded)
		m["flow.active.peak"] = float64(direct.activePeak)
		m["timeseries.bin.busy_s"] = tr.busy("timeseries.bin")
		m["timeseries.stats.busy_s"] = tr.busy("timeseries.stats")
		m["core.pop.busy_s"] = tr.busy("core.pop")
		m["core.pop.flows"] = float64(lay.popFlows)
		m["core.kernel.busy_s"] = tr.busy("core.kernel")
		m["core.fit.busy_s"] = tr.busy("core.fit")
		m["service.source.self_s"] = tr.busy("service.source")
		m["service.queue.wait_s"] = tr.busy("service.queue")
		m["service.add.busy_s"] = tr.busy("service.add")
		m["service.close.busy_s"] = tr.busy("service.close")
		m["service.closes"] = float64(direct.reports)
		m["service.close_lag_p50_ms"] = p50
		m["service.close_lag_p99_ms"] = p99
		m["snapshot.encode.busy_s"] = tr.busy("snapshot.encode")
		m["snapshot.save.busy_s"] = tr.busy("snapshot.save")
		m["snapshot.bytes"] = float64(direct.snapBytes)
		m["snapshot.saves"] = float64(tr.count("snapshot.save"))
		m["runtime.gc.cycles"] = float64(gc1 - gc0)
		m["runtime.gc.pause_s"] = gcPauseSeconds() - pause0
		m["traced.unattributed_s"] = gap
		m["traced.overhead"] = linkedWall / plainWall
		reps = append(reps, m)
		last = tr
	}
	out := medianMetrics(reps)
	out["store.write.busy_s"] = b.writeBusy
	out["store.write.bytes"] = float64(b.writeBytes)
	return out, last.writeTSV(spanPath)
}

// directRun is one pass of the Pipeline driven directly over the store.
type directRun struct {
	digest     string
	reports    int
	pkts       int64
	activePeak int
	snapBytes  int64
	layers     *layerRebuild
}

// driveDirect replays the store epochs exactly as ReplaySource does and
// feeds a Pipeline without a link. Each packet that crosses an interval
// boundary goes in its own AddBlock call, so that call times the interval
// close. With st, every close is followed by Pipeline.Snapshot and
// Store.Save. With tr, every call is timed and a rebuild of the pipeline's
// measurement layers runs beside it; its per-interval results must equal
// the reports bit for bit.
func driveDirect(rd *store.Reader, st *snapshot.Store, tr *tracer) (directRun, error) {
	var out directRun
	rl := tr.role("consumer")
	defer rl.done()
	dg := newReportDigest()
	var reports []service.Report
	p, err := service.NewPipeline(pipelineConfig(func(r service.Report) error {
		dg.add(r)
		if tr != nil {
			reports = append(reports, r)
		}
		return nil
	}))
	if err != nil {
		return out, err
	}
	var lay *layerRebuild
	if tr != nil {
		if lay, err = newLayerRebuild(); err != nil {
			return out, err
		}
	}
	blk := trace.GetBlock()
	defer trace.PutBlock(blk)
	ctx := context.Background()
	for epoch := 0; epoch < replayEpochs; epoch++ {
		offset := float64(epoch) * replayEpoch
		var consumed int64
		mark := rl.now()
		err := rd.Stream(ctx, 0, func(sb *trace.Block) error {
			t := rl.now()
			rl.span("store.read", 0, epoch, -1, mark, t)
			blk.Reset()
			blk.AppendRebased(sb, 0, sb.Len(), -offset)
			mark = rl.since("store.read", 0, epoch, -1, t)
			n := blk.Len()
			for j := 0; j < n; {
				cur := p.Interval()
				k := j
				for k < n && int(blk.Times[k]/replayIntervalSec) <= cur {
					k++
				}
				if k > j {
					sub := blk.Slice(j, k)
					if err := p.AddBlock(&sub); err != nil {
						return err
					}
					mark = rl.since("service.add", 0, epoch, cur, mark)
				}
				if k == n {
					break
				}
				one := blk.Slice(k, k+1)
				if err := p.AddBlock(&one); err != nil {
					return err
				}
				mark = rl.since("service.close", 0, epoch, cur, mark)
				j = k + 1
				if st != nil {
					secs := append(p.Snapshot(), service.EncodeCursor(service.Cursor{Epoch: int64(epoch), Packets: consumed + int64(j)}))
					for _, s := range secs {
						out.snapBytes += int64(len(s.Data))
					}
					mark = rl.since("snapshot.encode", 0, epoch, cur, mark)
					if _, err := st.Save(secs); err != nil {
						return err
					}
					mark = rl.since("snapshot.save", 0, epoch, cur, mark)
				}
			}
			consumed += int64(n)
			if a := p.ActiveFlows(); a > out.activePeak {
				out.activePeak = a
			}
			out.pkts += int64(n)
			if lay != nil {
				var err error
				if mark, err = lay.addBlock(rl, epoch, blk, mark); err != nil {
					return err
				}
			}
			return nil
		})
		rl.since("store.read", 0, epoch, -1, mark)
		if err != nil {
			return out, err
		}
	}
	// The exhausted source drains like the link does: the partial last
	// interval is reported.
	mark := rl.now()
	if err := p.Drain(); err != nil {
		return out, err
	}
	mark = rl.since("service.close", 0, replayEpochs-1, p.Interval(), mark)
	if lay != nil {
		lay.drain(rl, replayEpochs-1, mark)
	}
	out.digest, out.reports, out.layers = dg.sum(), dg.n, lay
	if lay != nil {
		if err := lay.match(reports); err != nil {
			return out, err
		}
	}
	return out, nil
}

// layerPoint is one interval closed by the layer rebuild: the fields of
// service.Report that the flow, timeseries and core layers produce.
type layerPoint struct {
	flows, discarded       int
	packets                int64
	mean, variance, cov    float64
	lambda, meanS, meanS2D float64
	fittedB                float64
	fitOK                  bool
}

// layerRebuild re-runs the Pipeline's per-interval measurement from the
// layers' public calls — Measurer, Binner, flow population, kernels and fit
// — timing each call.
type layerRebuild struct {
	meas    *flow.Measurer
	bin     *timeseries.Binner
	pop     *core.FlowPop
	kernels [3]*core.AvgVarKernel

	cur     int
	pkts    int64
	rebased []float64
	points  []layerPoint

	assembled, flows, discarded, popFlows int64
}

func newLayerRebuild() (*layerRebuild, error) {
	l := &layerRebuild{pop: &core.FlowPop{}}
	var err error
	if l.meas, err = flow.NewMeasurer([]flow.Definition{flow.By5Tuple, flow.ByPrefix24}, flow.DefaultTimeout); err != nil {
		return nil, err
	}
	if l.bin, err = timeseries.NewBinner(replayIntervalSec, replayDelta); err != nil {
		return nil, err
	}
	for b := range l.kernels {
		if l.kernels[b], err = core.NewAvgVarKernel(b, replayDelta); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// addBlock consumes one absolute-time block, closing intervals at their
// boundaries, and returns the end of its last span.
func (l *layerRebuild) addBlock(rl *role, epoch int, blk *trace.Block, mark int64) (int64, error) {
	n := blk.Len()
	for j := 0; j < n; {
		idx := int(blk.Times[j] / replayIntervalSec)
		for l.cur < idx {
			mark = l.close(rl, epoch, mark)
		}
		k := j + 1
		for k < n && int(blk.Times[k]/replayIntervalSec) == idx {
			k++
		}
		l.pkts += int64(k - j)
		sub := blk.Slice(j, k)
		if origin := float64(l.cur) * replayIntervalSec; origin != 0 {
			if cap(l.rebased) < k-j {
				l.rebased = make([]float64, k-j)
			}
			l.rebased = l.rebased[:k-j]
			for i := j; i < k; i++ {
				l.rebased[i-j] = blk.Times[i] - origin
			}
			sub.Times = l.rebased
		}
		if err := l.meas.AddBlock(&sub); err != nil {
			return mark, err
		}
		l.assembled += int64(k - j)
		mark = rl.since("flow.assemble", 0, epoch, l.cur, mark)
		l.bin.AddBlock(&sub)
		mark = rl.since("timeseries.bin", 0, epoch, l.cur, mark)
		j = k
	}
	return mark, nil
}

// drain closes the partial last interval, as Pipeline.Drain does.
func (l *layerRebuild) drain(rl *role, epoch int, mark int64) int64 {
	if l.pkts == 0 {
		return mark
	}
	return l.close(rl, epoch, mark)
}

// close finalises the current interval as Pipeline.closeInterval does.
func (l *layerRebuild) close(rl *role, epoch int, mark int64) int64 {
	results := l.meas.Flush()
	for _, r := range results {
		l.flows += int64(len(r.Flows))
		l.discarded += int64(len(r.Discarded))
	}
	mark = rl.since("flow.flush", 0, epoch, l.cur, mark)
	series := l.bin.Series()
	series.Subtract(results[0].Discarded)
	pt := layerPoint{
		flows:     len(results[0].Flows),
		discarded: len(results[0].Discarded),
		packets:   l.pkts,
		mean:      series.Mean(),
		variance:  series.Variance(),
		cov:       series.CoV(),
	}
	mark = rl.since("timeseries.stats", 0, epoch, l.cur, mark)
	in, err := core.InputFromFlowsPop(l.pop, results[0].Flows, replayIntervalSec)
	mark = rl.since("core.pop", 0, epoch, l.cur, mark)
	if err == nil {
		l.popFlows += int64(l.pop.Len())
		pt.lambda, pt.meanS, pt.meanS2D = in.Lambda, in.MeanS, in.MeanS2OverD
		if b, ok, err := core.FitPowerB(pt.variance, in.Lambda, in.MeanS2OverD); err == nil {
			pt.fittedB, pt.fitOK = b, ok
		}
		mark = rl.since("core.fit", 0, epoch, l.cur, mark)
		bIdx := int(math.Round(pt.fittedB))
		bIdx = max(0, min(bIdx, 2))
		_, _ = l.kernels[bIdx].AveragedVariance(in.Lambda, in.Pop)
		mark = rl.since("core.kernel", 0, epoch, l.cur, mark)
	}
	l.points = append(l.points, pt)
	l.cur++
	l.pkts = 0
	l.meas.Reset()
	mark = rl.since("flow.flush", 0, epoch, l.cur, mark)
	if err := l.bin.Reinit(replayIntervalSec, replayDelta); err != nil {
		panic(err) // the same arguments NewBinner accepted
	}
	return rl.since("timeseries.bin", 0, epoch, l.cur, mark)
}

// match requires the rebuilt intervals to equal the pipeline's reports bit
// for bit; otherwise the traced layers timed another program.
func (l *layerRebuild) match(reports []service.Report) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(l.points) != len(reports) {
		return fmt.Errorf("layer rebuild closed %d intervals, pipeline reported %d", len(l.points), len(reports))
	}
	for i, r := range reports {
		p := l.points[i]
		if p.flows != r.Flows || p.discarded != r.Discarded || p.packets != r.Packets ||
			!same(p.mean, r.MeasMean) || !same(p.variance, r.MeasVar) || !same(p.cov, r.MeasCoV) ||
			!same(p.lambda, r.Lambda) || !same(p.meanS, r.MeanS) || !same(p.meanS2D, r.MeanS2oD) ||
			!same(p.fittedB, r.FittedB) || p.fitOK != r.FitOK {
			return fmt.Errorf("layer rebuild interval %d differs from the pipeline's report", r.Index)
		}
	}
	return nil
}
