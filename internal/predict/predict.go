// Package predict implements the paper's §VII-B application: short-term
// prediction of the total rate with a Moving-Average (linear MMSE)
// predictor. The rate is sampled every ℓ seconds; the next sample is
// predicted as a linear combination of the last M samples,
//
//	R̂_k = Σ_{i=0}^{M-1} a_i · R_{k-1-i}
//
// with coefficients solving the normal equations (paper eq. 8)
//
//	Σ_i a_i ρ(|i-j|) = ρ(j+1),   j = 0..M-1,
//
// where ρ is the autocorrelation of the sampled rate. ρ can come either
// from measurements of the rate itself or from the model's Theorem 2 —
// the paper's point being that the model-based ρ uses many more samples
// (every flow contributes) and so wins for large prediction intervals.
package predict

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// Predictor is a fitted MA predictor of order M = len(Coef).
type Predictor struct {
	// Coef[i] multiplies the (i+1)-back sample: R̂_k = Σ Coef[i]·R_{k-1-i}.
	Coef []float64
}

// FromACF solves the order-m normal equations for a process with
// autocorrelation sequence rho (rho[0] = 1; at least m+1 lags required).
func FromACF(rho []float64, m int) (*Predictor, error) {
	if m < 1 {
		return nil, fmt.Errorf("predict: order must be >= 1, got %d", m)
	}
	if len(rho) < m+1 {
		return nil, fmt.Errorf("predict: need %d autocorrelation lags, have %d", m+1, len(rho))
	}
	coef, err := linalg.SolveToeplitz(rho[:m], rho[1:m+1])
	if err != nil {
		return nil, fmt.Errorf("predict: normal equations: %w", err)
	}
	return &Predictor{Coef: coef}, nil
}

// Order returns M.
func (p *Predictor) Order() int { return len(p.Coef) }

// Centered wraps a Predictor to operate on deviations from a level μ:
//
//	R̂_k = μ + Σ a_i · (R_{k-1-i} - μ)
//
// For a stationary process with mean μ this is the exact LMMSE predictor.
// Level 0 gives the paper's literal (raw) formulation, and the two
// coincide when Σa_i ≈ 1 (strongly correlated samples, e.g. Δ ≪ flow
// durations). On sparsely correlated samples the raw form is biased by
// (1-Σa_i)·μ, so the experiment harness centres on the training mean.
type Centered struct {
	P     *Predictor
	Level float64
}

// Predict returns the centred prediction for the next sample.
func (c *Centered) Predict(history []float64) (float64, error) {
	m := c.P.Order()
	if len(history) < m {
		return 0, fmt.Errorf("predict: need %d history samples, have %d", m, len(history))
	}
	var sum float64
	n := len(history)
	for i, a := range c.P.Coef {
		sum += a * (history[n-1-i] - c.Level)
	}
	return c.Level + sum, nil
}

// Evaluate runs one-step-ahead prediction across series and returns the
// paper's error metric: √E[(R̂-R)²] / E[R] (Table II reports it in percent).
// The first Order samples seed the history and are not scored.
func (c *Centered) Evaluate(series []float64) (float64, error) {
	m := c.P.Order()
	if len(series) < m+2 {
		return 0, fmt.Errorf("predict: series of %d too short for order %d", len(series), m)
	}
	var se float64
	count := 0
	for k := m; k < len(series); k++ {
		hat, err := c.Predict(series[:k])
		if err != nil {
			return 0, err
		}
		d := hat - series[k]
		se += d * d
		count++
	}
	mean := stats.Mean(series)
	if mean == 0 {
		return 0, fmt.Errorf("predict: zero-mean series")
	}
	return math.Sqrt(se/float64(count)) / math.Abs(mean), nil
}

// PredictSeries returns the one-step-ahead predictions aligned with series:
// out[k] is the prediction of series[k] from its past (NaN for the first
// Order samples). This generates the paper's Figure 14 overlay.
func (c *Centered) PredictSeries(series []float64) []float64 {
	m := c.P.Order()
	out := make([]float64, len(series))
	for k := range out {
		if k < m {
			out[k] = math.NaN()
			continue
		}
		v, err := c.Predict(series[:k])
		if err != nil {
			out[k] = math.NaN()
			continue
		}
		out[k] = v
	}
	return out
}

// MeasuredACF estimates the autocorrelation of the sampled rate directly
// from the series (the paper's baseline approach).
func MeasuredACF(series []float64, maxLag int) []float64 {
	return stats.AutoCorrelation(series, maxLag)
}

// ModelACF computes ρ(kℓ) for k = 0..maxLag from the shot-noise model via
// Theorem 2, the paper's proposed approach: the autocovariance comes from
// flow statistics rather than from the (few) rate samples.
func ModelACF(m *core.Model, ell float64, maxLag int) ([]float64, error) {
	if !(ell > 0) {
		return nil, fmt.Errorf("predict: sampling interval must be > 0, got %g", ell)
	}
	if maxLag < 1 {
		return nil, fmt.Errorf("predict: need at least one lag")
	}
	if !(m.Variance() > 0) {
		return nil, fmt.Errorf("predict: model variance is zero")
	}
	taus := make([]float64, maxLag)
	for k := range taus {
		taus[k] = float64(k+1) * ell
	}
	return append([]float64{1}, m.AutoCorrelations(taus)...), nil
}

// SelectOrder implements the paper's order-selection rule: start from
// M = 1 and take the lowest order that precedes an increase in the mean
// square prediction error, evaluated on the training series; maxM bounds
// the search. Predictors are centred on the training mean (see Centered).
// It returns the chosen predictor and its training error.
func SelectOrder(rho []float64, train []float64, maxM int) (*Centered, float64, error) {
	if maxM < 1 {
		return nil, 0, fmt.Errorf("predict: maxM must be >= 1")
	}
	if maxM > len(rho)-1 {
		maxM = len(rho) - 1
	}
	level := stats.Mean(train)
	var (
		best     *Centered
		bestErr  = math.Inf(1)
		prevErr  = math.Inf(1)
		selected *Centered
		selErr   float64
	)
	for m := 1; m <= maxM; m++ {
		p, err := FromACF(rho, m)
		if err != nil {
			// A singular system at higher order ends the search; keep the
			// best order found so far.
			break
		}
		c := &Centered{P: p, Level: level}
		e, err := c.Evaluate(train)
		if err != nil {
			break
		}
		if e < bestErr {
			best, bestErr = c, e
		}
		if e > prevErr && selected == nil {
			// prev order preceded an increase: the paper's stopping rule.
			break
		}
		prevErr = e
		selected, selErr = c, e
	}
	if selected == nil {
		if best == nil {
			return nil, 0, fmt.Errorf("predict: no usable order <= %d", maxM)
		}
		return best, bestErr, nil
	}
	return selected, selErr, nil
}
