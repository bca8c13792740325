package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/predict"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Table1 reproduces Table I: the trace suite summary — dates and lengths
// from the paper, the scaled target utilisation, and the realised average
// rate of each generated trace.
func (r *Runner) Table1(w io.Writer) error {
	sep(w, "Table I — trace suite (scaled reproduction)")
	sums, err := r.Summaries()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-14s %-8s %10s %12s %12s %10s %10s\n",
		"trace", "date", "length", "paperMbps", "targetMbps", "actualMbps", "flows", "packets")
	for i, spec := range r.specs {
		s := sums[i]
		fmt.Fprintf(w, "%-8s %-14s %-8s %10.0f %12.2f %12.2f %10d %10d\n",
			spec.Name, spec.Entry.Date, spec.Entry.Length,
			spec.Entry.AvgMbps, spec.TargetBps/1e6, s.AvgRateBps/1e6,
			s.Flows, s.Packets)
	}
	fmt.Fprintf(w, "link scaled to %.0f Mb/s (paper: OC-12, 622 Mb/s); utilisation fractions preserved\n",
		r.linkBps()/1e6)
	return nil
}

// PredictionSetup holds the dedicated trace used for Table II and Fig 14.
type PredictionSetup struct {
	Duration float64
	Series   timeseries.Series // Δ-binned measured rate (discards removed)
	Flows    []flow.Flow
}

// predictionTrace generates the prediction experiment's trace: one long
// analysis window at a mid-utilisation operating point (the paper uses one
// 30-minute trace from Table I), streamed once through the flow measurer
// and the rate binner.
func (r *Runner) predictionTrace(duration float64, seed int64) (*PredictionSetup, error) {
	spec := r.specs[4] // trace-5: 136 Mb/s on the OC-12, the paper's mid class
	cfg := spec.Config()
	cfg.Duration = duration
	cfg.Warmup = 60
	cfg.Seed = seed
	m, err := flow.NewMeasurer([]flow.Definition{flow.By5Tuple}, flow.DefaultTimeout)
	if err != nil {
		return nil, err
	}
	binner, err := timeseries.NewBinner(duration, r.opts.Delta)
	if err != nil {
		return nil, fmt.Errorf("experiments: prediction trace: %w", err)
	}
	if _, err := trace.StreamParallelBlocksCtx(r.context(), cfg, r.opts.GenWorkers, func(blk *trace.Block) error {
		binner.AddBlock(blk)
		return m.AddBlock(blk)
	}); err != nil {
		return nil, fmt.Errorf("experiments: prediction trace: %w", err)
	}
	res := m.Flush()[0]
	series := binner.Series()
	series.Subtract(res.Discarded)
	return &PredictionSetup{Duration: duration, Series: series, Flows: res.Flows}, nil
}

// predictOne evaluates both predictor families at one sampling interval ell
// and returns (order, test error) for the measured-ACF and the model-ACF
// approaches.
func predictOne(ps *PredictionSetup, delta float64, ell float64) (mMeas int, errMeas float64, mModel int, errModel float64, err error) {
	k := int(ell / delta)
	if k < 1 {
		return 0, 0, 0, 0, fmt.Errorf("experiments: ell %g below delta %g", ell, delta)
	}
	sampled, err := ps.Series.Downsample(k)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n := len(sampled.Rate)
	if n < 12 {
		return 0, 0, 0, 0, fmt.Errorf("experiments: only %d samples at ell=%g", n, ell)
	}
	half := n / 2
	train, test := sampled.Rate[:half], sampled.Rate[half:]
	const maxM = 8

	// Measured approach: ACF from the training samples themselves.
	maxLag := maxM
	if maxLag > half/2 {
		maxLag = half / 2
	}
	if maxLag < 1 {
		maxLag = 1
	}
	rhoMeas := predict.MeasuredACF(train, maxLag)
	pm, _, err := predict.SelectOrder(rhoMeas, train, maxM)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("experiments: measured predictor: %w", err)
	}
	em, err := pm.Evaluate(test)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	// Model approach: ACF from Theorem 2 on the flows of the training half.
	var trainFlows []flow.Flow
	for _, f := range ps.Flows {
		if f.Start < ps.Duration/2 {
			trainFlows = append(trainFlows, f)
		}
	}
	in, err := core.InputFromFlows(trainFlows, ps.Duration/2)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	model, err := in.Model(core.Triangular)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	rhoModel, err := predict.ModelACF(model, ell, maxM)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	pM, _, err := predict.SelectOrder(rhoModel, train, maxM)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("experiments: model predictor: %w", err)
	}
	eM, err := pM.Evaluate(test)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return pm.P.Order(), em, pM.P.Order(), eM, nil
}

// Table2 reproduces Table II: prediction error (percent) versus the
// prediction interval ℓ for the two predictor families. The expected shape:
// comparable errors at small ℓ, with the model-based predictor degrading
// more gracefully at large ℓ where rate samples run out.
func (r *Runner) Table2(w io.Writer, duration float64, seed int64) error {
	sep(w, "Table II — prediction of the total rate (MA predictor, §VII-B)")
	if duration == 0 {
		duration = 1800
	}
	ps, err := r.predictionTrace(duration, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %.0f s at %.1f Mb/s mean; Δ=%.0f ms; train/test halves\n",
		duration, ps.Series.Mean()/1e6, r.opts.Delta*1e3)
	fmt.Fprintf(w, "%8s | %8s %10s | %8s %10s\n",
		"ell(s)", "M-meas", "err-meas", "M-model", "err-model")
	for _, ell := range []float64{2, 5, 10, 30, 60} {
		mm, em, mM, eM, err := predictOne(ps, r.opts.Delta, ell)
		if err != nil {
			fmt.Fprintf(w, "%8.0f | %s\n", ell, err)
			continue
		}
		fmt.Fprintf(w, "%8.0f | %8d %9.2f%% | %8d %9.2f%%\n", ell, mm, em*100, mM, eM*100)
	}
	fmt.Fprintln(w, "(paper Table II: errors 3.9-5.6%, model-based wins at large ell)")
	return nil
}

// Fig14 reproduces Figure 14: the measured rate overlaid with its one-step
// prediction at ℓ = 10 s, for both predictor families.
func (r *Runner) Fig14(w io.Writer, duration float64, seed int64) error {
	sep(w, "Figure 14 — predicted vs measured total rate (ell = 10 s)")
	if duration == 0 {
		duration = 1800
	}
	ps, err := r.predictionTrace(duration, seed)
	if err != nil {
		return err
	}
	const ell = 10.0
	k := int(ell / r.opts.Delta)
	sampled, err := ps.Series.Downsample(k)
	if err != nil {
		return err
	}
	series := sampled.Rate
	half := len(series) / 2
	// Model-based predictor trained on the first half.
	var trainFlows []flow.Flow
	for _, f := range ps.Flows {
		if f.Start < ps.Duration/2 {
			trainFlows = append(trainFlows, f)
		}
	}
	in, err := core.InputFromFlows(trainFlows, ps.Duration/2)
	if err != nil {
		return err
	}
	model, err := in.Model(core.Triangular)
	if err != nil {
		return err
	}
	rhoModel, err := predict.ModelACF(model, ell, 8)
	if err != nil {
		return err
	}
	pModel, _, err := predict.SelectOrder(rhoModel, series[:half], 8)
	if err != nil {
		return err
	}
	rhoMeas := predict.MeasuredACF(series[:half], 8)
	pMeas, _, err := predict.SelectOrder(rhoMeas, series[:half], 8)
	if err != nil {
		return err
	}
	hatModel := pModel.PredictSeries(series)
	hatMeas := pMeas.PredictSeries(series)
	if !r.opts.Quiet {
		fmt.Fprintf(w, "%8s %12s %14s %14s\n", "t(s)", "measured", "pred(model)", "pred(meas)")
		for i := half; i < len(series); i++ {
			fmt.Fprintf(w, "%8.0f %12.0f %14.0f %14.0f\n",
				float64(i)*ell, series[i], hatModel[i], hatMeas[i])
		}
	}
	rms := func(hat []float64) float64 {
		var se float64
		var n int
		for i := half; i < len(series); i++ {
			if math.IsNaN(hat[i]) {
				continue
			}
			d := hat[i] - series[i]
			se += d * d
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		return math.Sqrt(se / float64(n))
	}
	mean := 0.0
	for _, v := range series[half:] {
		mean += v
	}
	mean /= float64(len(series) - half)
	fmt.Fprintf(w, "test-half RMS error: model-ACF %.2f%%, measured-ACF %.2f%% of the mean rate\n",
		100*rms(hatModel)/mean, 100*rms(hatMeas)/mean)
	return nil
}
