package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/stats"
)

// arrivalGaps returns the inter-arrival times of flows (flows are sorted by
// start time by the measurement pipeline).
func arrivalGaps(flows []flow.Flow) []float64 {
	if len(flows) < 2 {
		return nil
	}
	gaps := make([]float64, len(flows)-1)
	for i := 1; i < len(flows); i++ {
		gaps[i-1] = flows[i].Start - flows[i-1].Start
	}
	return gaps
}

// Fig1 reproduces Figure 1: the cumulative number of flow arrivals during
// one analysis interval under the /24 prefix definition, with the zoom near
// t = 0 showing the inflated arrival count caused by flows already in
// progress at the interval boundary (the splitting artefact of §III).
func (r *Runner) Fig1(w io.Writer) error {
	sep(w, "Figure 1 — cumulative flow arrivals in one interval (/24 prefix flows)")
	_, resP, err := r.RefInterval()
	if err != nil {
		return err
	}
	flows := resP.Flows
	if len(flows) == 0 {
		return fmt.Errorf("experiments: reference interval has no prefix flows")
	}
	interval := r.specs[0].IntervalSec
	total := len(flows)
	fmt.Fprintf(w, "total flows: %d over %.0f s\n", total, interval)
	if !r.opts.Quiet {
		fmt.Fprintln(w, "time(s)  cumulative")
		step := interval / 30
		i := 0
		for t := step; t <= interval+1e-9; t += step {
			for i < total && flows[i].Start <= t {
				i++
			}
			fmt.Fprintf(w, "%7.1f  %d\n", t, i)
		}
		fmt.Fprintln(w, "zoom near 0 (first 2% of the interval):")
		zoomEnd := interval * 0.02
		i = 0
		for t := zoomEnd / 10; t <= zoomEnd+1e-12; t += zoomEnd / 10 {
			for i < total && flows[i].Start <= t {
				i++
			}
			fmt.Fprintf(w, "%7.3f  %d\n", t, i)
		}
	}
	// Continuation flows: arrivals in the first 0.4% of the interval
	// (the paper's 0.4 s of a 30-minute interval) versus the steady-state
	// expectation for that span.
	frac := 0.004
	var early int
	for _, f := range flows {
		if f.Start <= interval*frac {
			early++
		}
	}
	expected := float64(total) * frac
	fmt.Fprintf(w, "flows in first %.1f%% of interval: %d (steady-state expectation %.0f)\n",
		frac*100, early, expected)
	fmt.Fprintf(w, "=> continuation (split) flows ≈ %d of %d total (%.1f%%) — marginal, as §III argues\n",
		early-int(expected), total, 100*float64(early-int(expected))/float64(total))
	return nil
}

// figInterArrivals is the shared body of Figures 3 and 4.
func (r *Runner) figInterArrivals(w io.Writer, def flow.Definition, title string) error {
	sep(w, title)
	res5, resP, err := r.RefInterval()
	if err != nil {
		return err
	}
	res := res5
	if def == flow.ByPrefix24 {
		res = resP
	}
	gaps := arrivalGaps(res.Flows)
	if len(gaps) < 100 {
		return fmt.Errorf("experiments: too few flows (%d) for inter-arrival analysis", len(gaps))
	}
	pts, err := stats.QQExponential(gaps, 20)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "qq-plot vs exponential (sample quantile, exponential quantile) in ms:")
	for _, p := range pts {
		fmt.Fprintf(w, "%10.4f %10.4f\n", p.Sample*1e3, p.Theoretical*1e3)
	}
	dev := stats.QQMaxDeviation(pts, stats.Mean(gaps), 0.95)
	fmt.Fprintf(w, "max central deviation: %.2f mean gaps (close to exponential when ≪ 1)\n", dev)
	acf := stats.AutoCorrelation(gaps, 20)
	fmt.Fprintln(w, "auto-correlation of inter-arrival times, lags 0..20:")
	printACF(w, acf)
	return nil
}

// Fig3 reproduces Figure 3: inter-arrival qq-plot and autocorrelation for
// 5-tuple flows — the empirical support for Assumption 1 (Poisson).
func (r *Runner) Fig3(w io.Writer) error {
	return r.figInterArrivals(w, flow.By5Tuple,
		"Figure 3 — inter-arrival distribution and correlation (5-tuple flows)")
}

// Fig4 reproduces Figure 4: same as Fig3 under the /24 prefix definition.
func (r *Runner) Fig4(w io.Writer) error {
	return r.figInterArrivals(w, flow.ByPrefix24,
		"Figure 4 — inter-arrival distribution and correlation (/24 prefix flows)")
}

// figSizeDuration is the shared body of Figures 5 and 6.
func (r *Runner) figSizeDuration(w io.Writer, def flow.Definition, title string) error {
	sep(w, title)
	res5, resP, err := r.RefInterval()
	if err != nil {
		return err
	}
	res := res5
	if def == flow.ByPrefix24 {
		res = resP
	}
	sizes := make([]float64, len(res.Flows))
	durs := make([]float64, len(res.Flows))
	for i, f := range res.Flows {
		sizes[i] = f.SizeBits()
		durs[i] = f.Duration()
	}
	fmt.Fprintln(w, "auto-correlation of flow durations {D_n}, lags 0..20:")
	printACF(w, stats.AutoCorrelation(durs, 20))
	fmt.Fprintln(w, "auto-correlation of flow sizes {S_n}, lags 0..20:")
	printACF(w, stats.AutoCorrelation(sizes, 20))
	fmt.Fprintf(w, "size/duration cross-correlation of the same flow: %.3f (correlated, as §IV notes)\n",
		stats.CrossCorrelation(sizes, durs))
	return nil
}

// Fig5 reproduces Figure 5: serial correlation of {S_n} and {D_n} for
// 5-tuple flows — the empirical support for Assumption 2 (iid flows).
func (r *Runner) Fig5(w io.Writer) error {
	return r.figSizeDuration(w, flow.By5Tuple,
		"Figure 5 — correlation of flow sizes and durations (5-tuple flows)")
}

// Fig6 reproduces Figure 6: same as Fig5 under the /24 prefix definition.
func (r *Runner) Fig6(w io.Writer) error {
	return r.figSizeDuration(w, flow.ByPrefix24,
		"Figure 6 — correlation of flow sizes and durations (/24 prefix flows)")
}

// Fig7 reproduces Figure 7: the four canonical shot shapes, sampled for a
// unit flow (S = 1, D = 1), so their normalisation is visible.
func (r *Runner) Fig7(w io.Writer) error {
	sep(w, "Figure 7 — shot shapes x(t) for a unit flow (S=1, D=1)")
	shots := []core.PowerShot{
		core.Rectangular,
		core.Triangular,
		core.PowerShot{B: 0.5},
		core.Parabolic,
	}
	fmt.Fprintf(w, "%6s", "t")
	for _, s := range shots {
		fmt.Fprintf(w, " %18s", s.Name())
	}
	fmt.Fprintln(w)
	for i := 0; i <= 20; i++ {
		t := float64(i) / 20
		fmt.Fprintf(w, "%6.2f", t)
		for _, s := range shots {
			fmt.Fprintf(w, " %18.4f", s.Rate(1, 1, t))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "each column integrates to 1 (the flow size constraint, eq. 5)")
	return nil
}

// Fig8 reproduces Figure 8: the model's autocorrelation coefficient of the
// total rate, ρ(τ) for τ up to 400 ms, for b = 0, 1, 2 under both flow
// definitions (Theorem 2 applied to the measured flow population).
func (r *Runner) Fig8(w io.Writer) error {
	sep(w, "Figure 8 — model autocorrelation of the total rate (Theorem 2)")
	res5, resP, err := r.RefInterval()
	if err != nil {
		return err
	}
	interval := r.specs[0].IntervalSec
	var taus []float64
	for tau := 0.0; tau <= 0.4001; tau += 0.025 {
		taus = append(taus, tau)
	}
	for _, defCase := range []struct {
		name string
		res  flow.Result
	}{
		{"5-tuple flows", res5},
		{"/24 prefix flows", resP},
	} {
		in, err := core.InputFromFlows(defCase.res.Flows, interval)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s:\n%8s %8s %8s %8s\n", defCase.name, "tau(ms)", "b=0", "b=1", "b=2")
		curves := make([][]float64, 0, 3)
		for _, b := range []float64{0, 1, 2} {
			m, err := in.Model(core.PowerShot{B: b})
			if err != nil {
				return err
			}
			curves = append(curves, m.AutoCorrelations(taus))
		}
		for i, tau := range taus {
			fmt.Fprintf(w, "%8.0f", tau*1e3)
			for _, rho := range curves {
				fmt.Fprintf(w, " %8.4f", rho[i])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "prefix flows decay more slowly (longer durations), as in the paper")
	return nil
}

// scatter is the shared body of Figures 9, 10, 12, 13: measured CoV on the
// x-axis, model CoV on the y-axis, one point per 30-minute-equivalent
// interval, with the paper's ±20% error band summarised.
func (r *Runner) scatter(w io.Writer, def flow.Definition, b int, title string) error {
	sep(w, title)
	sts, err := r.Stats(def)
	if err != nil {
		return err
	}
	if len(sts) == 0 {
		return fmt.Errorf("experiments: no intervals measured")
	}
	if !r.opts.Quiet {
		fmt.Fprintf(w, "%-9s %4s %-16s %12s %12s %8s\n",
			"trace", "ivl", "util-class", "measured(%)", "model(%)", "relerr")
	}
	var within20, n int
	var sumAbs float64
	for _, s := range sts {
		model, ok := s.ModelCoV[b]
		if !ok || s.MeasCoV == 0 {
			continue
		}
		rel := (model - s.MeasCoV) / s.MeasCoV
		if math.Abs(rel) <= 0.20 {
			within20++
		}
		sumAbs += math.Abs(rel)
		n++
		if !r.opts.Quiet {
			fmt.Fprintf(w, "%-9s %4d %-16s %12.2f %12.2f %+7.1f%%\n",
				s.Trace, s.Index, s.UtilClass(), s.MeasCoV*100, model*100, rel*100)
		}
	}
	if n == 0 {
		return fmt.Errorf("experiments: no usable scatter points")
	}
	fmt.Fprintf(w, "points: %d; within ±20%% band: %d (%.0f%%); mean |rel err|: %.1f%%\n",
		n, within20, 100*float64(within20)/float64(n), 100*sumAbs/float64(n))
	return nil
}

// Fig9 reproduces Figure 9: CoV scatter, 5-tuple flows, triangular shots.
// The paper finds the triangular shot often under-estimates for 5-tuple
// flows (it misses part of the TCP ramp dynamics).
func (r *Runner) Fig9(w io.Writer) error {
	return r.scatter(w, flow.By5Tuple, 1,
		"Figure 9 — CoV of total rate: model (triangular, b=1) vs measured, 5-tuple flows")
}

// Fig10 reproduces Figure 10: CoV scatter, 5-tuple flows, parabolic shots —
// the best-fitting shape for 5-tuple flows in the paper.
func (r *Runner) Fig10(w io.Writer) error {
	return r.scatter(w, flow.By5Tuple, 2,
		"Figure 10 — CoV of total rate: model (parabolic, b=2) vs measured, 5-tuple flows")
}

// Fig11 reproduces Figure 11: the histogram of the fitted power b̂ across
// intervals (5-tuple flows). The paper's average is ≈ 2.
func (r *Runner) Fig11(w io.Writer) error {
	sep(w, "Figure 11 — fitted power b̂ of the flow rate function (5-tuple flows)")
	sts, err := r.Stats(flow.By5Tuple)
	if err != nil {
		return err
	}
	h, err := stats.NewHistogram(0, 8, 16)
	if err != nil {
		return err
	}
	var mean stats.Moments
	for _, s := range sts {
		h.Add(s.FittedBRaw)
		mean.Add(s.FittedBRaw)
	}
	if mean.N() == 0 {
		return fmt.Errorf("experiments: no fitted intervals")
	}
	fmt.Fprint(w, h.String())
	fmt.Fprintf(w, "mean b̂ = %.2f over %d intervals (paper: ≈ 2; raw fit biased low by Δ-averaging, §V-F)\n",
		mean.Mean(), mean.N())
	return nil
}

// Fig12 reproduces Figure 12: CoV scatter, /24 prefix flows, rectangular
// shots — aggregation dilutes transport dynamics, so the flattest shot fits.
func (r *Runner) Fig12(w io.Writer) error {
	return r.scatter(w, flow.ByPrefix24, 0,
		"Figure 12 — CoV of total rate: model (rectangular, b=0) vs measured, /24 prefix flows")
}

// Fig13 reproduces Figure 13: CoV scatter, /24 prefix flows, triangular
// shots.
func (r *Runner) Fig13(w io.Writer) error {
	return r.scatter(w, flow.ByPrefix24, 1,
		"Figure 13 — CoV of total rate: model (triangular, b=1) vs measured, /24 prefix flows")
}

// printACF prints one autocorrelation sequence per line pair.
func printACF(w io.Writer, acf []float64) {
	for k, v := range acf {
		fmt.Fprintf(w, "  lag %2d: %+.3f\n", k, v)
	}
}
