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

// maxFitB bounds the root search of FitPowerBAveraged. Fitted exponents in
// the paper's Figure 11 stay below 8; 16 leaves generous headroom.
const maxFitB = 16.0

// FitPowerBAveraged fits the power-shot exponent to a variance that was
// measured over averaging windows of length delta. FitPowerB compares the
// measured variance against the *instantaneous* model variance, which the
// paper notes biases b̂ low when Δ is not negligible against flow durations
// (§V-F, §VI). This variant inverts the averaged variance of eq. (7)
// instead, over every flow of the population: σ_Δ²(b) is increasing in b,
// and a false-position search finds where it matches the measurement.
//
// ok is false when the measurement falls outside [σ_Δ²(0), σ_Δ²(maxFitB)]
// and b clamps to the nearer end.
func FitPowerBAveraged(measuredVariance, delta float64, in Input) (float64, bool, error) {
	if !(measuredVariance >= 0) {
		return 0, false, fmt.Errorf("core: measured variance must be >= 0, got %g", measuredVariance)
	}
	if !(delta > 0) {
		return 0, false, fmt.Errorf("core: averaging interval must be > 0, got %g", delta)
	}
	if in.Pop.Len() == 0 {
		return 0, false, fmt.Errorf("core: fit needs a non-empty flow population")
	}
	excess := func(b float64) float64 {
		return averagedVariance(in.Lambda, PowerShot{B: b}, in.Pop, delta) - measuredVariance
	}
	// a and b bracket the root, b the newest estimate. Illinois step: a
	// kept end's value halves each time it survives, so it cannot stall
	// the search, which stops once σ_Δ²(c) matches to 1e-6 relative (well
	// inside the integral's own accuracy) or the bracket is 1e-4 wide.
	a, b := 0.0, maxFitB
	fa, fb := excess(a), excess(b)
	if fa >= 0 {
		return 0, false, nil
	}
	if fb <= 0 {
		return maxFitB, false, nil
	}
	for i := 0; i < 60 && math.Abs(b-a) > 1e-4; i++ {
		c := (a*fb - b*fa) / (fb - fa)
		fc := excess(c)
		if math.Abs(fc) <= 1e-6*measuredVariance {
			return c, true, nil
		}
		if fc*fb < 0 {
			a, fa = b, fb
		} else {
			fa /= 2
		}
		b, fb = c, fc
	}
	return (a + b) / 2, true, nil
}
