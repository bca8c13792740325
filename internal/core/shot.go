// Package core implements the paper's primary contribution: the Poisson
// shot-noise model of the total data rate on an uncongested backbone link
// (Barakat et al., IMC 2002, §IV-V).
//
// Flows arrive as a Poisson process of rate λ; flow n carries S_n bits over
// a duration D_n with a flow rate function ("shot") X_n(t-T_n), and the
// total rate is R(t) = Σ_n X_n(t-T_n). The model computes the moments, the
// distribution approximation, the auto-covariance and the spectral density
// of R(t) from three measurable inputs: λ, E[S] and E[S²/D], plus a choice
// of shot shape.
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

// NewPowerShot validates b ≥ 0 and returns the shot.
func NewPowerShot(b float64) (PowerShot, error) {
	if !(b >= 0) || math.IsInf(b, 0) {
		return PowerShot{}, fmt.Errorf("core: power shot exponent must be finite and >= 0, got %g", b)
	}
	return PowerShot{B: b}, nil
}

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
// closed-form binomial expansion; otherwise composite Simpson quadrature.
func (p PowerShot) CrossCov(s, d, tau float64) float64 {
	return p.crossCovN(s, d, tau, 512)
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

// crossCovN is CrossCov with an explicit quadrature resolution for the
// non-integer-b path; the eq.(7) fitter uses a coarse resolution in its
// bisection inner loop.
func (p PowerShot) crossCovN(s, d, tau float64, n int) float64 {
	if tau < 0 {
		tau = -tau
	}
	if d <= 0 || tau >= d {
		return 0
	}
	l := d - tau
	if b := int(p.B); float64(b) == p.B && b >= 0 && b <= 20 {
		// Closed form: a² Σ_j C(b,j) τ^(b-j) L^(b+j+1)/(b+j+1). All powers
		// are small integers, so binary exponentiation replaces math.Pow —
		// this is the innermost loop of the whole experiment suite
		// (AveragedVariance integrates AutoCovariance, which calls CrossCov
		// once per flow per quadrature point).
		a := s * (p.B + 1) / powi(d, b+1)
		var sum float64
		for j := 0; j <= b; j++ {
			term := binomial(b, j) * powi(tau, b-j) *
				powi(l, b+j+1) / float64(b+j+1)
			sum += term
		}
		return a * a * sum
	}
	a := s * (p.B + 1) / math.Pow(d, p.B+1)
	f := func(t float64) float64 {
		return math.Pow(t, p.B) * math.Pow(t+tau, p.B)
	}
	return a * a * simpson(f, 0, l, n)
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
// the paper's b ∈ {0,1,2} — take the quadrature path instead, keeping the
// result within ~1e-6 relative everywhere.
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

// simpson integrates f over [a, b] with n subintervals (n rounded up to
// even) using the composite Simpson rule.
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if b <= a {
		return 0
	}
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}
