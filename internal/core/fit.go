package core

import (
	"fmt"
	"math"
)

// FitPowerB solves the paper's §V-D calibration: given the measured
// variance σ̂² of the total rate and the measured parameters λ and E[S²/D],
// find the power-shot exponent b whose model variance
//
//	Var = λ·(b+1)²/(2b+1)·E[S²/D]
//
// matches σ̂². With ζ = σ̂² / (λ·E[S²/D]) the positive root is
//
//	b̂ = (ζ-1) + √(ζ·(ζ-1))
//
// Theorem 3 guarantees ζ ≥ 1 for an exact shot-noise process; measurement
// noise and rate averaging (§V-F) can push ζ slightly below 1, in which
// case b̂ clamps to 0 (rectangular) and ok is false.
func FitPowerB(measuredVariance, lambda, meanS2OverD float64) (b float64, ok bool, err error) {
	if !(lambda > 0) || !(meanS2OverD > 0) {
		return 0, false, fmt.Errorf("core: fit needs lambda > 0 and E[S²/D] > 0, got %g, %g", lambda, meanS2OverD)
	}
	if !(measuredVariance >= 0) {
		return 0, false, fmt.Errorf("core: measured variance must be >= 0, got %g", measuredVariance)
	}
	zeta := measuredVariance / (lambda * meanS2OverD)
	if zeta < 1 {
		return 0, false, nil
	}
	return (zeta - 1) + math.Sqrt(zeta*(zeta-1)), true, nil
}

// MeanFromParams returns E[R] = λ·E[S] from the two parameters alone
// (Corollary 1) — what an online estimator tracks without storing flows.
func MeanFromParams(lambda, meanS float64) float64 { return lambda * meanS }

// VarianceFromParams returns Var(R) = λ·K(b)·E[S²/D] from the three-number
// parameterisation of §V-G.
func VarianceFromParams(lambda, meanS2OverD float64, shot PowerShot) float64 {
	return lambda * shot.VarianceFactor() * meanS2OverD
}

// CoVFromParams returns the coefficient of variation from the three
// parameters (λ, E[S], E[S²/D]) and a shot exponent.
func CoVFromParams(lambda, meanS, meanS2OverD float64, shot PowerShot) float64 {
	mu := MeanFromParams(lambda, meanS)
	if mu == 0 {
		return 0
	}
	return math.Sqrt(VarianceFromParams(lambda, meanS2OverD, shot)) / mu
}

// maxFitB bounds the bisection of FitPowerBAveraged. Fitted exponents in
// the paper's Figure 11 stay below 8; 16 leaves generous headroom.
const maxFitB = 16.0

// FitPowerBAveraged fits the power-shot exponent to a variance that was
// measured over averaging windows of length delta. FitPowerB compares the
// measured variance against the *instantaneous* model variance, which the
// paper notes biases b̂ low when Δ is not negligible against flow durations
// (§V-F, §VI). This variant inverts the averaged variance of eq. (7)
// instead: it finds b such that σ_Δ²(b) matches the measurement, by
// bisection (σ_Δ² is increasing in b).
//
// maxSamples caps the flow subsample used for the eq. (7) quadrature
// (deterministic stride), trading accuracy for speed; 0 means use all.
// ok is false when the measurement falls outside [σ_Δ²(0), σ_Δ²(maxFitB)]
// and b clamps to the nearer end.
func FitPowerBAveraged(measuredVariance, delta float64, in Input, maxSamples int) (float64, bool, error) {
	if !(measuredVariance >= 0) {
		return 0, false, fmt.Errorf("core: measured variance must be >= 0, got %g", measuredVariance)
	}
	if !(delta > 0) {
		return 0, false, fmt.Errorf("core: averaging interval must be > 0, got %g", delta)
	}
	pop := in.Pop
	n := pop.Len()
	if n == 0 {
		return 0, false, fmt.Errorf("core: fit needs a non-empty flow population")
	}
	// The eq. (7) quadrature runs over every stride-th flow: all of them
	// unless maxSamples caps the subsample.
	stride, count := 1, n
	// scale corrects the first-order subsampling bias: CrossCov for a power
	// shot factors as (S²/D)·g_b(τ/D), and E[S²/D] is heavy-tailed, so a
	// subsample can easily miss the few giant flows that carry most of it.
	// Rescaling by the full-population E[S²/D] restores the level; only the
	// (mild) shape dependence on the D-mix remains subject to noise.
	scale := 1.0
	if maxSamples > 0 && n > maxSamples {
		stride = n / maxSamples
		count = (n + stride - 1) / stride
		var subS2oD float64
		for i := 0; i < n; i += stride {
			subS2oD += pop.S2[i] / pop.D[i]
		}
		subS2oD /= float64(count)
		if subS2oD > 0 && in.MeanS2OverD > 0 {
			scale = in.MeanS2OverD / subS2oD
		}
	}
	// Coarse-quadrature evaluation of eq. (7) for a power shot: the outer
	// integrand is near-linear in τ for Δ ≪ D and the bisection only needs
	// ~1e-2 accuracy in b, so 16 outer and 64 inner Simpson points suffice
	// (validated against the full-resolution path in the tests).
	avgVar := func(b float64) float64 {
		p := PowerShot{B: b}
		f := func(tau float64) float64 {
			var sum float64
			for i := 0; i < n; i += stride {
				sum += p.crossCovN(pop.S[i], pop.D[i], tau, 64)
			}
			return (1 - tau/delta) * in.Lambda * sum / float64(count)
		}
		return scale * 2 / delta * simpson(f, 0, delta, 16)
	}
	lo, hi := 0.0, maxFitB
	if measuredVariance <= avgVar(lo) {
		return 0, false, nil
	}
	if measuredVariance >= avgVar(hi) {
		return maxFitB, false, nil
	}
	for i := 0; i < 60 && hi-lo > 1e-4; i++ {
		mid := (lo + hi) / 2
		if avgVar(mid) < measuredVariance {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true, nil
}
