package core

import (
	"fmt"
	"math"

	"repro/internal/flow"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Meter is the per-interval science of the paper's validation, written
// once: it measures flows (§III) and bins the Δ-averaged rate (§V-F) as an
// interval's blocks stream by, and Eval turns the interval into its
// measured moments, the model inputs of §V-G and the §V-D fit of b. The
// suite, flowd, flowstats and four of the examples measure through it. It
// keeps its flow tables, bins and flow population across intervals, so an
// interval costs no measurement-machinery allocation; it is not safe for
// concurrent use.
type Meter struct {
	intervalSec, delta float64
	meas               *flow.Measurer
	bin                *timeseries.Binner
	pop                FlowPop
	rate               []float64 // Eval's series storage, reused every interval
	// kernels are the eq.(7) caches of the paper's shapes b = 0, 1, 2 at Δ.
	kernels [3]*AvgVarKernel
}

// Interval is one evaluated interval under one flow definition.
type Interval struct {
	// Series is the Δ-binned rate with the single-packet flows subtracted.
	// Its storage is the meter's own and holds until the next Eval.
	Series                     timeseries.Series
	MeasMean, MeasVar, MeasCoV float64
	// Input is zero when the interval has no usable flows. Its population
	// is the meter's own and holds until the next Eval.
	Input
	// FittedB is the §V-D fit against MeasVar: FitOK is false when it
	// clamps to 0, FitErr set when the fit could not run.
	FittedB float64
	FitOK   bool
	FitErr  error
}

// NewMeter builds a meter over the flow definitions and timeout, for
// intervals of intervalSec seconds binned at delta.
func NewMeter(defs []flow.Definition, timeout, intervalSec, delta float64) (*Meter, error) {
	m := &Meter{intervalSec: intervalSec, delta: delta}
	var err error
	if m.meas, err = flow.NewMeasurer(defs, timeout); err != nil {
		return nil, err
	}
	if m.bin, err = timeseries.NewBinner(intervalSec, delta); err != nil {
		return nil, err
	}
	for b := range m.kernels {
		if m.kernels[b], err = NewAvgVarKernel(b, delta); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// AddBlock bins one block of interval-relative packets and measures its
// flows.
func (m *Meter) AddBlock(blk *trace.Block) error {
	m.bin.AddBlock(blk)
	return m.meas.AddBlock(blk)
}

// Flush finalises the open flows, one Result per definition, ordered as
// flow.Assembler.Flush orders them. The results are borrowed: they stay
// valid until the next Flush or Reset.
func (m *Meter) Flush() []flow.Result { return m.meas.Flush() }

// Reset re-arms the flow tables and the bins for the next interval.
func (m *Meter) Reset() {
	m.meas.Reset()
	m.bin.Reinit(m.intervalSec, m.delta) // cannot fail: NewMeter accepted this window
}

// ActiveFlows returns the open flow count behind the i-th definition: the
// finest definition's table occupancy (flow.Measurer.ActiveFlows).
func (m *Meter) ActiveFlows(i int) int { return m.meas.ActiveFlows(i) }

// Eval evaluates the binned interval against one definition's flows, on
// its own snapshot of the bins, so each definition subtracts only its own
// discards. The measured fields are always set; the error reports an
// interval with no usable flows, whose Input stays zero. The series and
// the population are borrowed, like Flush's results: both stay valid until
// the next Eval.
func (m *Meter) Eval(res flow.Result) (Interval, error) {
	iv := Interval{Series: m.bin.SeriesInto(m.rate)}
	m.rate = iv.Series.Rate
	iv.Series.Subtract(res.Discarded)
	iv.MeasMean, iv.MeasVar, iv.MeasCoV = iv.Series.Mean(), iv.Series.Variance(), iv.Series.CoV()
	in, err := InputFromFlowsPop(&m.pop, res.Flows, m.intervalSec)
	if err != nil {
		return iv, err
	}
	iv.Input = in
	iv.FittedB, iv.FitOK, iv.FitErr = FitPowerB(iv.MeasVar, in.Lambda, in.MeanS2OverD)
	return iv, nil
}

// SigmaDelta returns the eq.(7) standard deviation σ_Δ of the model rate
// for the shot exponent b ∈ {0, 1, 2} over iv's population.
func (m *Meter) SigmaDelta(iv Interval, b int) (float64, error) {
	if b < 0 || b >= len(m.kernels) {
		return 0, fmt.Errorf("core: meter kernels cover b = 0..%d, got %d", len(m.kernels)-1, b)
	}
	v, err := m.kernels[b].AveragedVariance(iv.Lambda, iv.Pop)
	return math.Sqrt(v), err
}
