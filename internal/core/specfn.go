package core

import "math"

// The special function behind the closed-form log-MGF of power shots (the
// Chernoff bound of tail.go): the partial integral ∫₀^x u^{a-1}(e^u-1) du
// that the per-flow integrand reduces to.

// gammaLowerExpM1 returns H(a, x) = ∫₀^x u^{a-1}·(e^u - 1) du for a > 0,
// x >= 0 — the reduced log-MGF integrand. Expanding e^u - 1 termwise gives
// the everywhere-positive series
//
//	H(a, x) = x^a · Σ_{n>=1} x^n / (n!·(a+n)),
//
// which converges for all finite x (terms decay once n > x) and overflows
// to +Inf exactly when the integral does (x ≳ 710), which the Chernoff
// bracket expansion relies on.
func gammaLowerExpM1(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	term := 1.0 // x^n/n! running factor, n = 0
	sum := 0.0
	for n := 1; n < 4000; n++ {
		term *= x / float64(n)
		contrib := term / (a + float64(n))
		sum += contrib
		if math.IsInf(sum, 1) {
			return sum
		}
		if float64(n) > x && contrib < sum*1e-16 {
			break
		}
	}
	return math.Pow(x, a) * sum
}
