package service

import (
	"fmt"
	"math"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/predict"
	"repro/internal/trace"
)

// PipelineConfig sizes one link's resident measurement state.
type PipelineConfig struct {
	// IntervalSec is the analysis-interval length (the paper's 30-minute
	// window, scaled). Required.
	IntervalSec float64
	// Delta is the rate averaging interval Δ. Required.
	Delta float64
	// Window is how many per-interval mean rates the predictor keeps
	// (default 32, at least predictOrder+2) — the sliding-window bound on
	// series memory.
	Window int
	// Timeout is the flow-termination timeout (default the paper's 60 s).
	Timeout float64
	// OnInterval observes every closed interval, in order. Its error aborts
	// the stream (and is classified by the supervisor like any other).
	OnInterval func(Report) error
}

// The fixed parts of the online evaluation.
const (
	anomalyZ      = 3 // anomaly band half-width in standard deviations
	anomalyMinRun = 3 // consecutive out-of-band bins that make one event
	predictOrder  = 2 // AR order of the one-step rate predictor
)

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Window == 0 {
		c.Window = 32
	}
	if c.Timeout == 0 {
		c.Timeout = flow.DefaultTimeout
	}
	return c
}

// Report is one closed analysis interval of a running link: the measured
// rate statistics, the refit model inputs, and the online anomaly/predictor
// evaluation against the previous interval's fit.
type Report struct {
	Index   int
	Start   float64 // interval start in stream seconds
	Partial bool    // a drain flushed this interval before its boundary

	Flows     int // kept flows under the 5-tuple definition
	Discarded int // single-packet flows under the 5-tuple definition
	Packets   int64

	MeasMean float64 // bit/s
	MeasVar  float64
	MeasCoV  float64

	// Model refit (zero when the interval was too sparse to fit).
	Lambda   float64
	MeanS    float64
	MeanS2oD float64
	FittedB  float64
	FitOK    bool

	// Anomaly scan against the previous interval's fitted band (nil band
	// before the first fit).
	Anomalies []anomaly.Event

	// One-step prediction made at the previous interval close for this
	// interval's mean rate.
	Predicted     float64
	HasPrediction bool
}

// Pipeline is the resident per-link measurement state of the daemon: the
// interval meter (flow tables, rate bins, population and eq.(7) kernels), a
// sliding window of interval means, and the carried-over anomaly band and
// predictor. It consumes absolute-time blocks and closes analysis intervals
// as the stream crosses their boundaries. Only the window, the band and the
// prediction cross a boundary — flows are split there and rates are binned
// per interval — so that is all a checkpoint holds (Snapshot), and a
// restored pipeline re-measures the open interval from its first packet.
type Pipeline struct {
	cfg   PipelineConfig
	meter *core.Meter

	clock   flow.IntervalClock
	pktsCur int64 // packets in the current interval
	// onClose, when set, runs after each boundary close in AddBlock with
	// the in-block offset of the packet that opens the next interval: the
	// resume point a checkpoint pairs with the state. Its error fails the
	// call. A Link installs it to checkpoint at every close.
	onClose func(opened int) error

	// hist holds the last cfg.Window interval means, oldest first: the
	// predictor's history, and the one series a checkpoint carries.
	hist []float64

	// Carried across intervals: the anomaly band fitted on the previous
	// interval (sigma 0 = no fit yet) and the pending one-step prediction.
	detMu, detSigma float64
	predNext        float64
	predHas         bool

	rebased []float64 // scratch
}

// NewPipeline validates the configuration and builds the resident state.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	clock, err := flow.NewIntervalClock(cfg.IntervalSec)
	if err != nil {
		return nil, err
	}
	if !(cfg.Delta > 0) || cfg.Delta > cfg.IntervalSec {
		return nil, fmt.Errorf("service: delta must be in (0, interval], got %g", cfg.Delta)
	}
	if cfg.Window < predictOrder+2 {
		return nil, fmt.Errorf("service: window must be >= %d intervals, got %d", predictOrder+2, cfg.Window)
	}
	p := &Pipeline{cfg: cfg, clock: clock}
	if p.meter, err = core.NewMeter([]flow.Definition{flow.By5Tuple}, cfg.Timeout, cfg.IntervalSec, cfg.Delta); err != nil {
		return nil, err
	}
	p.hist = make([]float64, 0, cfg.Window)
	return p, nil
}

// Interval returns the index of the interval currently being fed.
func (p *Pipeline) Interval() int { return p.clock.Index() }

// ActiveFlows returns the in-progress 5-tuple flow count — the occupancy
// the soak test bounds.
func (p *Pipeline) ActiveFlows() int { return p.meter.ActiveFlows(0) }

// AddBlock consumes one absolute-time SoA block, closing analysis intervals
// as the stream crosses their boundaries (empty intervals are emitted too —
// a silent link is data). Every packet is placed by the interval clock, so
// a time that is negative, NaN, +Inf or earlier than its predecessor fails
// the call. So does a packet before the open interval, which only a source
// resumed at the wrong position delivers; that error is permanent, since a
// restart would resume at the same position. The block is read, never
// retained.
func (p *Pipeline) AddBlock(blk *trace.Block) error {
	n := blk.Len()
	j := 0
	for j < n {
		idx, k, err := p.clock.PlaceRun(blk.Times, j)
		if err != nil {
			return err
		}
		if cur := p.clock.Index(); idx < cur {
			return MarkPermanent(fmt.Errorf("service: packet time %g falls in interval %d, before the open interval %d",
				blk.Times[j], idx, cur))
		}
		for p.clock.Index() < idx {
			if err := p.closeInterval(false); err != nil {
				return err
			}
			if p.onClose != nil {
				if err := p.onClose(j); err != nil {
					return err
				}
			}
		}
		p.pktsCur += int64(k - j)
		sub := blk.Slice(j, k)
		if origin := p.clock.Origin(); origin != 0 {
			if cap(p.rebased) < k-j {
				p.rebased = make([]float64, k-j)
			}
			p.rebased = p.rebased[:k-j]
			for i, t := range sub.Times {
				p.rebased[i] = t - origin
			}
			sub.Times = p.rebased
		}
		if err := p.meter.AddBlock(&sub); err != nil {
			return err
		}
		j = k
	}
	return nil
}

// Drain flushes the in-progress interval as a partial report (SIGTERM
// semantics: in-flight state is surfaced, not dropped). A pipeline that has
// consumed nothing since the last boundary emits nothing.
func (p *Pipeline) Drain() error {
	if p.pktsCur == 0 {
		return nil
	}
	return p.closeInterval(true)
}

// closeInterval finalises the current interval: flush flows, refit the
// model through the meter, scan for anomalies against the previous fit,
// update the predictor, report, and re-arm for the next interval.
func (p *Pipeline) closeInterval(partial bool) error {
	res := p.meter.Flush()[0]
	// A sparse interval (no usable flows) skips the fit but still reports
	// and predicts.
	iv, sparse := p.meter.Eval(res)
	rep := Report{
		Index:     p.clock.Index(),
		Start:     p.clock.Origin(),
		Partial:   partial,
		Flows:     len(res.Flows),
		Discarded: len(res.Discarded),
		Packets:   p.pktsCur,
		MeasMean:  iv.MeasMean, MeasVar: iv.MeasVar, MeasCoV: iv.MeasCoV,
		Lambda: iv.Lambda, MeanS: iv.MeanS, MeanS2oD: iv.MeanS2OverD,
		FittedB: iv.FittedB, FitOK: iv.FitOK,
	}

	// Next interval's anomaly band: mean λ·E[S], σ from the eq.(7) kernel
	// whose integer shape is nearest the fitted exponent.
	var nextMu, nextSigma float64
	if sparse == nil {
		b := max(0, min(int(math.Round(rep.FittedB)), 2))
		if sigma, err := p.meter.SigmaDelta(iv, b); err == nil && sigma > 0 {
			nextMu, nextSigma = iv.Lambda*iv.MeanS, sigma
		}
	}

	// Anomaly scan against the band fitted on the previous interval.
	if p.detSigma > 0 {
		det := anomaly.Detector{Mu: p.detMu, Sigma: p.detSigma, Z: anomalyZ, MinRun: anomalyMinRun}
		rep.Anomalies = det.Scan(iv.Series)
	}

	// Settle the pending prediction, then predict the next interval's mean.
	if p.predHas {
		rep.Predicted, rep.HasPrediction = p.predNext, true
	}
	if len(p.hist) == p.cfg.Window {
		p.hist = append(p.hist[:0], p.hist[1:]...)
	}
	p.hist = append(p.hist, rep.MeasMean)
	p.predHas = false
	if len(p.hist) >= predictOrder+2 {
		rho := predict.MeasuredACF(p.hist, predictOrder)
		if pr, err := predict.FromACF(rho, predictOrder); err == nil {
			var level float64
			for _, v := range p.hist {
				level += v
			}
			level /= float64(len(p.hist))
			c := predict.Centered{P: pr, Level: level}
			if v, err := c.Predict(p.hist); err == nil {
				p.predNext, p.predHas = v, true
			}
		}
	}

	p.detMu, p.detSigma = nextMu, nextSigma

	// Re-arm for the next interval before reporting, so a reporting error
	// (or panic) never leaves a half-closed interval behind.
	p.clock.Advance()
	p.pktsCur = 0
	p.meter.Reset()
	if p.cfg.OnInterval != nil {
		if err := p.cfg.OnInterval(rep); err != nil {
			return fmt.Errorf("service: interval %d report: %w", rep.Index, err)
		}
	}
	return nil
}
