// Package core implements the paper's primary contribution: the Poisson
// shot-noise model of the total data rate on an uncongested backbone link
// (Barakat et al., IMC 2002, §IV-V).
//
// Flows arrive as a Poisson process of rate λ; flow n carries S_n bits over
// a duration D_n with a flow rate function ("shot") X_n(t-T_n), and the
// total rate is R(t) = Σ_n X_n(t-T_n). The model computes the mean and
// variance of R(t) from three measurable inputs, λ, E[S] and E[S²/D], plus
// a choice of shot shape; the auto-covariance (Theorem 2), the Δ-averaged
// variance of eq. (7) and the Chernoff tail bound average over the measured
// (S, D) flow population. Link dimensioning uses the Gaussian approximation
// (§V-E) or the tail bound.
package core

import (
	"fmt"
	"math"
)

// Shot describes the flow rate function x(t) on [0, D] for a flow of size
// s bits and duration d seconds, normalised so that ∫₀^D x(t) dt = S
// (the flow transmits exactly its size, eq. 5 of the paper).
type Shot interface {
	// Rate returns x(t) in bit/s at offset t ∈ [0, d]. Zero outside.
	Rate(s, d, t float64) float64
	// IntegralX2 returns ∫₀^D x(t)² dt, the per-flow contribution to the
	// variance (Corollary 2).
	IntegralX2(s, d float64) float64
	// CrossCov returns ∫₀^{D-τ} x(t)·x(t+τ) dt for τ ≥ 0 (0 for τ ≥ D),
	// the per-flow contribution to the auto-covariance (Theorem 2).
	CrossCov(s, d, tau float64) float64
	// Cumulative returns ∫₀^t x(u) du, the bits transmitted by offset t
	// (clamped to [0, s]). The §VII-C traffic generator integrates shots
	// over rate bins with it.
	Cumulative(s, d, t float64) float64
	// Name identifies the shape in reports.
	Name() string
}

// PowerShot is the paper's parametric family x(t) = a·t^b (§V-D, Figure 7):
// b = 0 is the rectangular shot (constant rate), b = 1 the triangular shot
// (linear TCP-like ramp), b = 2 the parabolic shot. The normalisation
// constraint gives a = S(b+1)/D^(b+1).
type PowerShot struct{ B float64 }

// Predefined shapes used throughout the paper's evaluation.
var (
	Rectangular = PowerShot{B: 0}
	Triangular  = PowerShot{B: 1}
	Parabolic   = PowerShot{B: 2}
)

// Name identifies the shape.
func (p PowerShot) Name() string {
	switch p.B {
	case 0:
		return "rectangular (b=0)"
	case 1:
		return "triangular (b=1)"
	case 2:
		return "parabolic (b=2)"
	default:
		return fmt.Sprintf("power (b=%g)", p.B)
	}
}

// VarianceFactor returns K(b) = (b+1)²/(2b+1), the multiplier of λE[S²/D]
// in the variance of the total rate (§V-C/D). K(0) = 1 (the Theorem 3 lower
// bound), K(1) = 4/3, K(2) = 9/5.
func (p PowerShot) VarianceFactor() float64 {
	return (p.B + 1) * (p.B + 1) / (2*p.B + 1)
}

// Rate returns a·t^b with a = s(b+1)/d^(b+1).
func (p PowerShot) Rate(s, d, t float64) float64 {
	if t < 0 || t > d || d <= 0 {
		return 0
	}
	a := s * (p.B + 1) / math.Pow(d, p.B+1)
	return a * math.Pow(t, p.B)
}

// IntegralX2 returns K(b)·s²/d.
func (p PowerShot) IntegralX2(s, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return p.VarianceFactor() * s * s / d
}

// CrossCov returns ∫₀^{D-τ} x(t)·x(t+τ) dt. For integer b it uses the
// closed-form binomial expansion. Otherwise it integrates the factorised
// form (S²/D)·(b+1)²·∫₀^{1−r} (v(v+r))^b dv, r = τ/D, on gradedGL8's pieces
// toward the v^b singularity at 0: three graded by a factor 8, then
// [0, (1−r)/512]. Against a finely graded reference that is within 1e-6
// relative for b ∈ [0.02, 5.5] and 2e-4 up to b = 15 (shot_test.go).
func (p PowerShot) CrossCov(s, d, tau float64) float64 {
	if tau < 0 {
		tau = -tau
	}
	if d <= 0 || tau >= d {
		return 0
	}
	l := d - tau
	if b := int(p.B); float64(b) == p.B && b >= 0 && b <= 20 {
		// Closed form: a² Σ_j C(b,j) τ^(b-j) L^(b+j+1)/(b+j+1). All powers
		// are small integers, so binary exponentiation replaces math.Pow.
		a := s * (p.B + 1) / powi(d, b+1)
		var sum float64
		for j := 0; j <= b; j++ {
			term := binomial(b, j) * powi(tau, b-j) *
				powi(l, b+j+1) / float64(b+j+1)
			sum += term
		}
		return a * a * sum
	}
	r, hi := tau/d, l/d
	f := func(v float64) float64 { return math.Pow(v*(v+r), p.B) }
	return s * s * (p.B + 1) * (p.B + 1) / d * gradedGL8(f, hi, hi/512)
}

// Cumulative returns s·(t/d)^(b+1), the bits transmitted by offset t.
func (p PowerShot) Cumulative(s, d, t float64) float64 {
	if t <= 0 || d <= 0 {
		return 0
	}
	if t >= d {
		return s
	}
	return s * math.Pow(t/d, p.B+1)
}

// powi returns x^n for small non-negative integer n by binary
// exponentiation (exact to within ordinary float rounding; ~20× cheaper
// than math.Pow for the n ≤ 5 the shot family uses).
func powi(x float64, n int) float64 {
	r := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r *= x
		}
		x *= x
	}
	return r
}

// closedFormB reports whether the shot exponent is a small non-negative
// integer for which the eq.(7) binomial expansion is well-conditioned: the
// alternating binomial sum loses precision as b grows (catastrophic
// cancellation among C(2b+1,k) terms), so exponents above 10 — far beyond
// the paper's b ∈ {0,1,2} — take the per-flow integral instead.
func (p PowerShot) closedFormB() bool {
	b := int(p.B)
	return float64(b) == p.B && b >= 0 && b <= 10
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// gaussLegendre8 integrates f from a to b with the 8-point Gauss–Legendre
// rule: exact for polynomials of degree up to 15, in 8 evaluations.
func gaussLegendre8(f func(float64) float64, a, b float64) float64 {
	c, h := (a+b)/2, (b-a)/2
	var sum float64
	for i, x := range gl8Nodes {
		sum += gl8Weights[i] * (f(c-h*x) + f(c+h*x))
	}
	return sum * h
}

// gradedGL8 integrates f over [0, hi] for an integrand with a power-law
// singularity at 0: it takes the 8-point rule on pieces graded geometrically
// toward 0, [hi/8, hi], [hi/64, hi/8], … while the piece's top exceeds
// floor, then one rule over what is left. Each graded piece keeps the
// singularity a fixed fraction of its width away, so every piece is
// integrated to the same relative accuracy.
func gradedGL8(f func(float64) float64, hi, floor float64) float64 {
	var sum float64
	for ; hi > floor; hi /= 8 {
		sum += gaussLegendre8(f, hi/8, hi)
	}
	return sum + gaussLegendre8(f, 0, hi)
}

// The positive nodes of the 8-point Gauss–Legendre rule on [-1, 1] and
// their weights; the rule is symmetric about 0.
var (
	gl8Nodes   = [4]float64{0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975363}
	gl8Weights = [4]float64{0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763}
)
