package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/stats"
)

// FlowSample is one observed (or sampled) flow: size S in bits, duration D
// in seconds. The model's expectations E[S], E[S²/D], E[∫X²] etc. are
// averages over a population of these.
type FlowSample struct {
	S float64 // bits
	D float64 // seconds
}

// Model is the Poisson shot-noise model of the total rate R(t) on a link:
// flow arrivals at rate Lambda, iid flows drawn from the Flows population,
// each transmitting with the Shot rate function.
type Model struct {
	Lambda float64
	Shot   Shot
	// Flows is the sample population in row (AoS) form, kept for callers
	// that sample flows (the traffic generator). Models built on the pooled
	// columnar path carry a nil Flows and only the pop columns.
	Flows []FlowSample

	// pop is the columnar view of the population that every kernel and
	// population loop evaluates over. NewModel derives it from Flows;
	// Input.Model can share one pooled FlowPop across shot shapes.
	pop *FlowPop

	// avKernel caches the last eq.(7) kernel the scalar AveragedVariance
	// face built, so repeated calls at one Δ (callers that probe the model
	// point-wise) pay the coefficient build once. Kernels are immutable and
	// (b, Δ)-keyed, so WithLambda copies share the cache pointer safely.
	avKernel *atomic.Pointer[AvgVarKernel]

	meanS    float64 // E[S] bits
	meanS2oD float64 // E[S²/D]
}

// NewModel validates inputs and precomputes the flow-population moments.
// The flow population must be non-empty with positive sizes and durations.
func NewModel(lambda float64, shot Shot, flows []FlowSample) (*Model, error) {
	if !(lambda > 0) {
		return nil, fmt.Errorf("core: lambda must be > 0, got %g", lambda)
	}
	if shot == nil {
		return nil, fmt.Errorf("core: nil shot")
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("core: empty flow population")
	}
	for i, f := range flows {
		if !(f.S > 0) || !(f.D > 0) {
			return nil, fmt.Errorf("core: flow %d has non-positive size or duration (%g, %g)", i, f.S, f.D)
		}
	}
	pop := newFlowPop(flows)
	return &Model{
		Lambda:   lambda,
		Shot:     shot,
		Flows:    flows,
		pop:      pop,
		avKernel: new(atomic.Pointer[AvgVarKernel]),
		meanS:    pop.MeanS(),
		meanS2oD: pop.MeanS2OverD(),
	}, nil
}

// newModelFromPop builds a model over a pre-built columnar population with
// its moments already computed (the pooled experiment path); Flows stays
// nil.
func newModelFromPop(lambda float64, shot Shot, pop *FlowPop, meanS, meanS2oD float64) (*Model, error) {
	if !(lambda > 0) {
		return nil, fmt.Errorf("core: lambda must be > 0, got %g", lambda)
	}
	if shot == nil {
		return nil, fmt.Errorf("core: nil shot")
	}
	if pop.Len() == 0 {
		return nil, fmt.Errorf("core: empty flow population")
	}
	return &Model{
		Lambda:   lambda,
		Shot:     shot,
		pop:      pop,
		avKernel: new(atomic.Pointer[AvgVarKernel]),
		meanS:    meanS,
		meanS2oD: meanS2oD,
	}, nil
}

// WithLambda returns a model identical to m but with a different arrival
// rate, sharing the flow population, its columns and the precomputed
// moments — the λ-sweeps of §VII-A scale load without re-validating and
// re-summing the population per point.
func (m *Model) WithLambda(lambda float64) (*Model, error) {
	if !(lambda > 0) {
		return nil, fmt.Errorf("core: lambda must be > 0, got %g", lambda)
	}
	c := *m
	c.Lambda = lambda
	return &c, nil
}

// population returns the columnar population, deriving it on the fly for
// hand-assembled models that bypassed NewModel (tests); such a derived view
// is not cached, so hand-built models pay the build per call.
func (m *Model) population() *FlowPop {
	if m.pop != nil || len(m.Flows) == 0 {
		return m.pop
	}
	return newFlowPop(m.Flows)
}

// Input bundles the three measurable parameters the paper's §V-G identifies
// as sufficient for the first two moments, together with the raw flow
// samples needed for the auto-covariance (Theorem 2) and higher moments.
type Input struct {
	Lambda      float64 // flow arrival rate (flows/s)
	MeanS       float64 // E[S] in bits
	MeanS2OverD float64 // E[S²/D] in bits²/s
	Samples     []FlowSample
	// Pop is the columnar view of Samples. When set, Model() shares it
	// across the shot shapes instead of rebuilding per-model columns; the
	// pooled InputFromFlowsPop path sets Pop alone (Samples nil).
	Pop *FlowPop
}

// InputFromFlows derives model inputs from measured flows over an interval
// of the given length (seconds). Flows with zero duration are skipped (the
// measurement pipeline has already discarded single-packet flows, but a
// defensive filter keeps the estimator total). The returned Input carries
// both the row-form Samples and the columnar Pop, so the shot shapes built
// from it share one population.
func InputFromFlows(flows []flow.Flow, intervalSec float64) (Input, error) {
	pop := &FlowPop{
		S:    make([]float64, 0, len(flows)),
		D:    make([]float64, 0, len(flows)),
		S2:   make([]float64, 0, len(flows)),
		InvD: make([]float64, 0, len(flows)),
	}
	in, err := InputFromFlowsPop(pop, flows, intervalSec)
	if err != nil {
		return Input{}, err
	}
	samples := make([]FlowSample, pop.Len())
	for i := range samples {
		samples[i] = FlowSample{S: pop.S[i], D: pop.D[i]}
	}
	in.Samples = samples
	return in, nil
}

// Model builds a model from the input with the given shot shape, sharing
// the columnar population when the input carries one.
func (in Input) Model(shot Shot) (*Model, error) {
	if in.Pop != nil {
		m, err := newModelFromPop(in.Lambda, shot, in.Pop, in.MeanS, in.MeanS2OverD)
		if err != nil {
			return nil, err
		}
		m.Flows = in.Samples // nil on the pooled path
		return m, nil
	}
	return NewModel(in.Lambda, shot, in.Samples)
}

// Mean returns E[R(t)] = λ·E[S] (Corollary 1). Note it is independent of
// the shot shape and of the duration distribution.
func (m *Model) Mean() float64 { return m.Lambda * m.meanS }

// Variance returns Var(R) = λ·E[∫₀^D X²(u) du] (Corollary 2). An empty
// population has zero variance (NewModel rejects one; only hand-built
// models reach this).
func (m *Model) Variance() float64 {
	pop := m.population()
	n := pop.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.Shot.IntegralX2(pop.S[i], pop.D[i])
	}
	return m.Lambda * sum / float64(n)
}

// StdDev returns the standard deviation of the total rate.
func (m *Model) StdDev() float64 { return math.Sqrt(m.Variance()) }

// CoV returns the coefficient of variation σ/μ of the total rate, the
// quantity the paper's validation compares against measurements.
func (m *Model) CoV() float64 {
	mu := m.Mean()
	if mu == 0 {
		return 0
	}
	return m.StdDev() / mu
}

// VarianceLowerBound returns λ·E[S²/D], the variance under rectangular
// shots, which Theorem 3 proves is the minimum over all flow rate
// functions.
func (m *Model) VarianceLowerBound() float64 { return m.Lambda * m.meanS2oD }

// AutoCovariance returns γ(τ) = λ·E[∫₀^{(D-|τ|)+} X(u)X(u+|τ|) du]
// (Theorem 2). γ(0) equals Variance().
func (m *Model) AutoCovariance(tau float64) float64 {
	pop := m.population()
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

// AutoCorrelation returns γ(τ)/γ(0), the curve of the paper's Figure 8.
func (m *Model) AutoCorrelation(tau float64) float64 {
	v := m.Variance()
	if v == 0 {
		return 0
	}
	return m.AutoCovariance(tau) / v
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
	pop := m.population()
	// Guard before the division below: a hand-built Model carries an empty
	// population (NewModel rejects one) and would otherwise return NaN.
	if pop.Len() == 0 {
		return 0, fmt.Errorf("core: averaged variance needs a non-empty flow population")
	}
	// Integer-b power shots (the paper's b = 0, 1, 2 and every fitted
	// integer exponent) evaluate through the (b, Δ) coefficient cache: one
	// branch-partitioned Horner pass over the population, against one pass
	// per quadrature point below. This is the hottest loop of the
	// experiment suite — every interval evaluates it for three shot shapes.
	// kernel_test.go's scalar closed form avgVarCrossInt is its oracle.
	if ps, ok := m.Shot.(PowerShot); ok && ps.closedFormB() {
		b := int(ps.B)
		var k *AvgVarKernel
		if m.avKernel != nil {
			if c := m.avKernel.Load(); c != nil && c.b == b && c.delta == delta {
				k = c
			}
		}
		if k == nil {
			var err error
			k, err = NewAvgVarKernel(b, delta)
			if err != nil {
				return 0, err
			}
			if m.avKernel != nil {
				m.avKernel.Store(k)
			}
		}
		return k.AveragedVariance(m.Lambda, pop)
	}
	f := func(tau float64) float64 {
		return (1 - tau/delta) * m.AutoCovariance(tau)
	}
	// The integrand is smooth; 64 Simpson points across [0, Δ] are ample
	// because γ varies on the scale of flow durations, which the paper's
	// operating point (Δ = 200 ms ≪ E[D]) keeps much longer than Δ.
	return 2 / delta * simpson(f, 0, delta, 64), nil
}

// AveragedVarianceBatch evaluates eq.(7) at many averaging intervals with
// one pass over the flow population (closed-form shots; other shots fall
// back to per-Δ quadrature). Results are bit-identical to calling
// AveragedVariance per Δ — the batch changes the memory traffic, not the
// arithmetic.
func (m *Model) AveragedVarianceBatch(deltas []float64) ([]float64, error) {
	out := make([]float64, len(deltas))
	if len(deltas) == 0 {
		return out, nil
	}
	pop := m.population()
	if pop.Len() == 0 {
		return nil, fmt.Errorf("core: averaged variance needs a non-empty flow population")
	}
	ps, ok := m.Shot.(PowerShot)
	if !ok || !ps.closedFormB() {
		for i, delta := range deltas {
			v, err := m.AveragedVariance(delta)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	ks := make([]*AvgVarKernel, len(deltas))
	for i, delta := range deltas {
		k, err := NewAvgVarKernel(int(ps.B), delta)
		if err != nil {
			return nil, err
		}
		ks[i] = k
	}
	sums := make([]float64, len(ks))
	avgVarSumMulti(ks, pop, sums)
	n := float64(pop.Len())
	for i, k := range ks {
		out[i] = 2 / k.delta * m.Lambda * sums[i] / n
	}
	return out, nil
}

// LST returns the Laplace-Stieltjes transform E[e^{-θR}] of the stationary
// total rate (Theorem 1):
//
//	E[e^{-θR}] = exp( -λ · E[ ∫₀^D (1 - e^{-θ·X(u)}) du ] )
//
// for θ ≥ 0. The inner integral is evaluated by Simpson quadrature per flow
// sample.
func (m *Model) LST(theta float64) (float64, error) {
	if theta < 0 {
		return 0, fmt.Errorf("core: LST requires theta >= 0, got %g", theta)
	}
	if theta == 0 {
		return 1, nil
	}
	// A hand-built Model can carry an empty population (NewModel rejects it);
	// without the guard the mean below divides by zero and returns NaN
	// instead of an error.
	pop := m.population()
	n := pop.Len()
	if n == 0 {
		return 0, fmt.Errorf("core: LST needs a non-empty flow population")
	}
	var sum float64
	// Integer-b power shots reduce the inner integral to an incomplete
	// gamma in closed form, with the θ-only constants hoisted into a kernel
	// — gammaLower1mExp is the only per-flow transcendental (the same
	// treatment that removed the quadrature from AveragedVariance). Other
	// shots keep Simpson. kernel_test.go's scalar lstIntegral is the oracle.
	if ps, ok := m.Shot.(PowerShot); ok && ps.closedFormB() {
		k := newLSTKernel(int(ps.B), theta)
		for i := 0; i < n; i++ {
			sum += k.oneMinusExp(pop.S[i], pop.D[i], pop.InvD[i])
		}
		return math.Exp(-m.Lambda * sum / float64(n)), nil
	}
	for i := 0; i < n; i++ {
		s, d := pop.S[i], pop.D[i]
		g := func(u float64) float64 {
			return 1 - math.Exp(-theta*m.Shot.Rate(s, d, u))
		}
		sum += simpson(g, 0, d, 128)
	}
	return math.Exp(-m.Lambda * sum / float64(n)), nil
}

// Cumulant returns the k-th cumulant of R(t), κ_k = λ·E[∫₀^D X(u)^k du]
// (Campbell's theorem; Corollary 3 in LST form). κ₁ is the mean, κ₂ the
// variance, κ₃ drives the skewness. PowerShots take the closed form; other
// shots are integrated numerically through Rate.
func (m *Model) Cumulant(k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: cumulant order must be >= 1, got %d", k)
	}
	pop := m.population()
	n := pop.Len()
	if n == 0 {
		return 0, fmt.Errorf("core: cumulant needs a non-empty flow population")
	}
	var sum float64
	if ps, ok := m.Shot.(PowerShot); ok {
		// ∫X^k = s^k·(b+1)^k / (d^{k-1}·(kb+1)): the (b+1)^k/(kb+1) factor
		// is flow-independent, and the flow powers are small-integer, so the
		// loop is pure powi — no math.Pow per flow (kernel_test.go's
		// IntegralXK is the scalar oracle).
		kk := float64(k)
		c := math.Pow(ps.B+1, kk) / (kk*ps.B + 1)
		for i := 0; i < n; i++ {
			sum += powi(pop.S[i], k) * powi(pop.InvD[i], k-1)
		}
		sum *= c
	} else {
		for i := 0; i < n; i++ {
			s, d := pop.S[i], pop.D[i]
			g := func(u float64) float64 {
				return math.Pow(m.Shot.Rate(s, d, u), float64(k))
			}
			sum += simpson(g, 0, d, 256)
		}
	}
	return m.Lambda * sum / float64(n), nil
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
