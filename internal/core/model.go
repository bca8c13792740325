package core

import (
	"fmt"
	"math"

	"repro/internal/flow"
	"repro/internal/stats"
)

// Model is the Poisson shot-noise model of the total rate R(t) on a link:
// flow arrivals at rate Lambda, iid flows drawn from the Pop population,
// each transmitting with the Shot rate function.
type Model struct {
	Lambda float64
	Shot   PowerShot
	// Pop is the (S, D) flow population every moment, kernel and
	// population loop evaluates over. Input.Model shares one population
	// across shot shapes, and WithLambda copies share it across λ.
	Pop *FlowPop
}

// NewModel validates its inputs and builds a model over the population,
// which must be non-empty with positive sizes and durations. The shot
// exponent must be finite and ≥ 0, the domain of the θ-kernel and of the
// §V-D fits. The model shares pop; the caller must not Reset or Append to
// it while the model is in use.
func NewModel(lambda float64, shot PowerShot, pop *FlowPop) (*Model, error) {
	if !(lambda > 0) {
		return nil, fmt.Errorf("core: lambda must be > 0, got %g", lambda)
	}
	if !(shot.B >= 0) || math.IsInf(shot.B, 1) {
		return nil, fmt.Errorf("core: shot exponent must be finite and >= 0, got %g", shot.B)
	}
	if pop.Len() == 0 {
		return nil, fmt.Errorf("core: empty flow population")
	}
	for i, s := range pop.S {
		if d := pop.D[i]; !(s > 0) || !(d > 0) {
			return nil, fmt.Errorf("core: flow %d has non-positive size or duration (%g, %g)", i, s, d)
		}
	}
	return &Model{Lambda: lambda, Shot: shot, Pop: pop}, nil
}

// WithLambda returns a model identical to m but with a different arrival
// rate, sharing the flow population and its cached sums — the λ-sweeps of
// §VII-A scale load without re-validating the population per point.
func (m *Model) WithLambda(lambda float64) (*Model, error) {
	if !(lambda > 0) {
		return nil, fmt.Errorf("core: lambda must be > 0, got %g", lambda)
	}
	c := *m
	c.Lambda = lambda
	return &c, nil
}

// Input bundles the three measurable parameters the paper's §V-G identifies
// as sufficient for the first two moments, together with the flow
// population needed for the auto-covariance (Theorem 2) and eq. (7).
type Input struct {
	Lambda      float64 // flow arrival rate (flows/s)
	MeanS       float64 // E[S] in bits
	MeanS2OverD float64 // E[S²/D] in bits²/s
	Pop         *FlowPop
}

// InputFromFlows derives model inputs from measured flows over an interval
// of the given length (seconds) into a fresh population; InputFromFlowsPop
// documents the filtering.
func InputFromFlows(flows []flow.Flow, intervalSec float64) (Input, error) {
	return InputFromFlowsPop(&FlowPop{}, flows, intervalSec)
}

// Model builds a model from the input with the given shot shape, sharing
// the input's population.
func (in Input) Model(shot PowerShot) (*Model, error) {
	return NewModel(in.Lambda, shot, in.Pop)
}

// Mean returns E[R(t)] = λ·E[S] (Corollary 1). Note it is independent of
// the shot shape and of the duration distribution.
func (m *Model) Mean() float64 { return MeanFromParams(m.Lambda, m.Pop.MeanS()) }

// Variance returns Var(R) = λ·E[∫₀^D X²(u) du] (Corollary 2), which for a
// power shot is λ·K(b)·E[S²/D]: O(1) over the population's running sums.
// An empty population has zero variance (NewModel rejects one; only
// hand-built models reach this).
func (m *Model) Variance() float64 {
	return VarianceFromParams(m.Lambda, m.Pop.MeanS2OverD(), m.Shot)
}

// StdDev returns the standard deviation of the total rate.
func (m *Model) StdDev() float64 { return math.Sqrt(m.Variance()) }

// CoV returns the coefficient of variation σ/μ of the total rate, the
// quantity the paper's validation compares against measurements.
func (m *Model) CoV() float64 {
	return CoVFromParams(m.Lambda, m.Pop.MeanS(), m.Pop.MeanS2OverD(), m.Shot)
}

// VarianceLowerBound returns λ·E[S²/D], the variance under rectangular
// shots, which Theorem 3 proves is the minimum over all flow rate
// functions.
func (m *Model) VarianceLowerBound() float64 { return m.Lambda * m.Pop.MeanS2OverD() }

// AutoCovariance returns γ(τ) = λ·E[∫₀^{(D-|τ|)+} X(u)X(u+|τ|) du]
// (Theorem 2). γ(0) equals Variance().
func (m *Model) AutoCovariance(tau float64) float64 {
	pop := m.Pop
	n := pop.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.Shot.CrossCov(pop.S[i], pop.D[i], tau)
	}
	return m.Lambda * sum / float64(n)
}

// AutoCorrelations returns γ(τ)/γ(0) at each lag in taus (0 everywhere when
// γ(0) = 0), the curve of the paper's Figure 8; γ(0) is the O(1) Variance.
// Closed-form integer b takes every lag in one population pass
// (powerCrossCovSums); each γ(τ) is bit-identical to AutoCovariance's.
func (m *Model) AutoCorrelations(taus []float64) []float64 {
	out := make([]float64, len(taus))
	v := m.Variance()
	if v == 0 {
		return out
	}
	if m.Shot.closedFormB() {
		n := float64(m.Pop.Len())
		for i, sum := range powerCrossCovSums(int(m.Shot.B), m.Pop, taus) {
			out[i] = m.Lambda * sum / n / v
		}
		return out
	}
	for i, tau := range taus {
		out[i] = m.AutoCovariance(tau) / v
	}
	return out
}

// powerCrossCovSums returns, for each lag, the sum over the population of
// PowerShot{B: b}.CrossCov's closed form, in one pass over the flows. The
// per-lag coefficients C(b,j)·τ^(b−j) and the per-flow a² are hoisted out
// of the inner loops; every flow's expression and every lag's summation
// order are CrossCov's and AutoCovariance's, so the sums are bit-identical.
func powerCrossCovSums(b int, pop *FlowPop, taus []float64) []float64 {
	lags := make([]float64, len(taus))
	coef := make([]float64, len(taus)*(b+1))
	for k, tau := range taus {
		if tau < 0 {
			tau = -tau
		}
		lags[k] = tau
		for j := 0; j <= b; j++ {
			coef[k*(b+1)+j] = binomial(b, j) * powi(tau, b-j)
		}
	}
	sums := make([]float64, len(taus))
	for i, s := range pop.S {
		d := pop.D[i]
		if d <= 0 {
			continue
		}
		a := s * float64(b+1) / powi(d, b+1)
		a2 := a * a
		for k, tau := range lags {
			if tau >= d {
				continue
			}
			l := d - tau
			c := coef[k*(b+1) : (k+1)*(b+1)]
			var sum float64
			for j, cj := range c {
				sum += cj * powi(l, b+j+1) / float64(b+j+1)
			}
			sums[k] += a2 * sum
		}
	}
	return sums
}

// AveragedVariance returns σ_Δ², the variance of the rate averaged over
// windows of length Δ (the measured rate of §V-F, eq. 7):
//
//	σ_Δ² = (2/Δ) ∫₀^Δ (1 - τ/Δ) γ(τ) dτ
//
// It is always at most Variance() and approaches it as Δ → 0.
func (m *Model) AveragedVariance(delta float64) (float64, error) {
	if !(delta > 0) {
		return 0, fmt.Errorf("core: averaging interval must be > 0, got %g", delta)
	}
	// Guard before the division below: a hand-built Model carries an empty
	// population (NewModel rejects one) and would otherwise return NaN.
	if m.Pop.Len() == 0 {
		return 0, fmt.Errorf("core: averaged variance needs a non-empty flow population")
	}
	// Integer b (the paper's b = 0, 1, 2 and every fitted integer
	// exponent) evaluates through a (b, Δ) coefficient kernel: one
	// branch-partitioned Horner pass over the population. kernel_test.go's
	// scalar closed form avgVarCrossInt is its oracle. A Meter, which
	// evaluates every interval at one Δ, builds its kernels once instead.
	if m.Shot.closedFormB() {
		k, err := NewAvgVarKernel(int(m.Shot.B), delta)
		if err != nil {
			return 0, err
		}
		return k.AveragedVariance(m.Lambda, m.Pop)
	}
	return averagedVariance(m.Lambda, m.Shot, m.Pop, delta), nil
}

// averagedVariance evaluates eq. (7) by Campbell's theorem: the rate
// averaged over Δ is shot noise with shot x̄(t) = (C(t+Δ) − C(t))/Δ on
// (−Δ, D), C the shot's Cumulative, so σ_Δ² = λ·E[∫ x̄(t)² dt]. x̄ is smooth
// between −Δ, 0, D−Δ and D, and each piece takes an 8-point Gauss–Legendre
// rule, exact at integer b ≤ 6. Past t ≈ Δ, x̄² grows like
// t^{2b} from its singularity at 0, so [0, D−Δ] takes gradedGL8, graded
// toward 0 by a factor 8 per piece down to Δ. At real b ∈ [0.02, 5.5] and
// D/Δ ∈ [0.1, 1e4] that is within 1.1e-5 relative of a finely graded
// reference, worst near D = Δ (avgvar_test.go checks the nested eq. (7)
// quadrature). The population must be non-empty.
func averagedVariance(lambda float64, shot PowerShot, pop *FlowPop, delta float64) float64 {
	var sum float64
	for i, s := range pop.S {
		d := pop.D[i]
		f := func(t float64) float64 {
			x := (shot.Cumulative(s, d, t+delta) - shot.Cumulative(s, d, t)) / delta
			return x * x
		}
		if e := d - delta; e > 0 {
			sum += gaussLegendre8(f, -delta, 0) + gradedGL8(f, e, delta) + gaussLegendre8(f, e, d)
		} else {
			sum += gaussLegendre8(f, -delta, e) + gaussLegendre8(f, e, 0) + gaussLegendre8(f, 0, d)
		}
	}
	return lambda * sum / float64(pop.Len())
}

// ExceedProb returns P(R > capacity) under the Gaussian approximation: the
// fraction of time the link would be congested at the given capacity.
func (m *Model) ExceedProb(capacity float64) float64 {
	sigma := m.StdDev()
	if sigma == 0 {
		if capacity >= m.Mean() {
			return 0
		}
		return 1
	}
	return 1 - stats.NormalCDF((capacity-m.Mean())/sigma)
}

// Bandwidth returns the capacity C such that P(R > C) = epsilon under the
// Gaussian approximation: C = E[R] + z_{1-ε}·σ. This is the paper's link
// dimensioning rule (§V-E, §VII-A).
func (m *Model) Bandwidth(epsilon float64) (float64, error) {
	if !(epsilon > 0 && epsilon < 1) {
		return 0, fmt.Errorf("core: congestion probability must be in (0,1), got %g", epsilon)
	}
	return m.Mean() + stats.NormalQuantile(1-epsilon)*m.StdDev(), nil
}
