package core

import (
	"fmt"
	"math"
)

// The paper's §V-E notes that "one can use large deviations techniques [23]
// to find a better approximation of the tail of the total rate" than the
// Gaussian. This file implements that refinement: the log-MGF of a Poisson
// shot noise is exactly
//
//	ψ(θ) = log E[e^{θR}] = λ · E[ ∫₀^D (e^{θ·X(u)} - 1) du ]
//
// (Theorem 1 with θ = -s), and the Chernoff bound
//
//	P(R > c) ≤ exp( -sup_θ { θc - ψ(θ) } )
//
// is tight on the exponential scale. Unlike the Gaussian approximation it
// respects the positivity and the skew of the rate, so it does not
// under-provision for small congestion probabilities.

// LogMGF returns ψ(θ) for θ ≥ 0. The inner integral of each flow takes its
// closed form through the hoisted θ-kernel (gammaLowerExpM1 is the only
// per-flow transcendental — this is what the Chernoff θ search runs on).
// ψ(0) = 0, ψ'(0) = E[R], ψ”(0) = Var(R).
func (m *Model) LogMGF(theta float64) (float64, error) {
	if theta < 0 {
		return 0, fmt.Errorf("core: LogMGF requires theta >= 0, got %g", theta)
	}
	if theta == 0 {
		return 0, nil
	}
	pop := m.Pop
	n := pop.Len()
	if n == 0 {
		return 0, fmt.Errorf("core: log-MGF needs a non-empty flow population")
	}
	var sum float64
	k := newMGFKernel(m.Shot.B, theta)
	for i := 0; i < n; i++ {
		sum += k.expM1(pop.S[i], pop.D[i], pop.InvD[i])
		if math.IsInf(sum, 0) {
			return math.Inf(1), nil
		}
	}
	return m.Lambda * sum / float64(n), nil
}

// ChernoffExceedProb returns the large-deviations upper bound on P(R > c):
// exp(-I(c)) with the rate function I(c) = sup_θ {θc - ψ(θ)}, located by
// golden-section search on the concave objective. For c ≤ E[R] the bound
// is vacuous and 1 is returned.
func (m *Model) ChernoffExceedProb(capacity float64) (float64, error) {
	mu := m.Mean()
	if capacity <= mu {
		return 1, nil
	}
	obj := func(theta float64) (float64, error) {
		psi, err := m.LogMGF(theta)
		if err != nil {
			return 0, err
		}
		return theta*capacity - psi, nil
	}
	// Bracket: the optimal θ* solves ψ'(θ*) = c. Start from the Gaussian
	// guess θ₀ = (c-μ)/σ² and expand until the objective turns down.
	v := m.Variance()
	if !(v > 0) {
		return 0, fmt.Errorf("core: zero variance")
	}
	theta0 := (capacity - mu) / v
	lo, hi := 0.0, theta0
	fHi, err := obj(hi)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 60; i++ {
		f2, err := obj(hi * 2)
		if err != nil {
			return 0, err
		}
		if math.IsInf(f2, 0) || f2 < fHi {
			break
		}
		lo, hi, fHi = hi, hi*2, f2
	}
	hi *= 2
	// Golden-section search for the maximum of the concave objective.
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, err := obj(x1)
	if err != nil {
		return 0, err
	}
	f2, err := obj(x2)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 80 && b-a > 1e-12*(1+b); i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2, err = obj(x2)
			if err != nil {
				return 0, err
			}
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1, err = obj(x1)
			if err != nil {
				return 0, err
			}
		}
	}
	rate := f1
	if f2 > rate {
		rate = f2
	}
	if rate < 0 {
		rate = 0
	}
	return math.Exp(-rate), nil
}

// BandwidthChernoff returns the capacity C with ChernoffExceedProb(C) = ε,
// the large-deviations counterpart of Bandwidth. Solved by bisection
// between the mean and a generous multiple of the Gaussian answer.
func (m *Model) BandwidthChernoff(epsilon float64) (float64, error) {
	if !(epsilon > 0 && epsilon < 1) {
		return 0, fmt.Errorf("core: congestion probability must be in (0,1), got %g", epsilon)
	}
	gauss, err := m.Bandwidth(epsilon)
	if err != nil {
		return 0, err
	}
	lo := m.Mean()
	hi := lo + 4*(gauss-lo) + m.StdDev()
	// Ensure the bracket covers the target.
	for i := 0; i < 40; i++ {
		p, err := m.ChernoffExceedProb(hi)
		if err != nil {
			return 0, err
		}
		if p < epsilon {
			break
		}
		hi = lo + 2*(hi-lo)
	}
	for i := 0; i < 60 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		p, err := m.ChernoffExceedProb(mid)
		if err != nil {
			return 0, err
		}
		if p > epsilon {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
