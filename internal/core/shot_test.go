package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostRel(a, b, rel float64) bool {
	if a == b {
		return true
	}
	den := math.Abs(a)
	if math.Abs(b) > den {
		den = math.Abs(b)
	}
	return math.Abs(a-b) <= rel*den
}

func TestVarianceFactorKnownValues(t *testing.T) {
	cases := []struct{ b, want float64 }{
		{0, 1},          // rectangular: the Theorem 3 lower bound
		{1, 4.0 / 3.0},  // triangular (§V-C.2)
		{2, 9.0 / 5.0},  // parabolic
		{3, 16.0 / 7.0}, // cubic
	}
	for _, c := range cases {
		if got := (PowerShot{B: c.b}).VarianceFactor(); !almostRel(got, c.want, 1e-12) {
			t.Fatalf("K(%g) = %g, want %g", c.b, got, c.want)
		}
	}
}

// Property: the shot integrates to the flow size for any (s, d, b) — the
// normalisation constraint (eq. 5).
func TestPowerShotIntegratesToSize(t *testing.T) {
	f := func(rawB, rawS, rawD float64) bool {
		b := math.Abs(math.Mod(rawB, 5))
		s := 1e3 + math.Abs(math.Mod(rawS, 1e7))
		d := 0.01 + math.Abs(math.Mod(rawD, 100))
		p := PowerShot{B: b}
		got := simpson(func(t float64) float64 { return p.Rate(s, d, t) }, 0, d, 4096)
		return almostRel(got, s, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerShotRateBoundary(t *testing.T) {
	p := Triangular
	if p.Rate(100, 2, -0.1) != 0 || p.Rate(100, 2, 2.1) != 0 {
		t.Fatal("rate must be zero outside [0, d]")
	}
	if p.Rate(100, 0, 1) != 0 {
		t.Fatal("zero-duration flow must have zero rate")
	}
	// Triangular peak at t=d is 2·s/d.
	if got, want := p.Rate(100, 2, 2), 100.0; got != want {
		t.Fatalf("triangular peak = %g, want %g", got, want)
	}
}

func TestIntegralX2MatchesQuadrature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		b := rng.Float64() * 4
		s := 1e4 + rng.Float64()*1e6
		d := 0.1 + rng.Float64()*20
		p := PowerShot{B: b}
		want := simpson(func(t float64) float64 { v := p.Rate(s, d, t); return v * v }, 0, d, 8192)
		got := p.VarianceFactor() * s * s / d
		if !almostRel(got, want, 5e-3) {
			t.Fatalf("b=%g s=%g d=%g: K(b)·s²/d = %g, quadrature %g", b, s, d, got, want)
		}
	}
}

func TestIntegralXK(t *testing.T) {
	p := Triangular
	s, d := 5e5, 3.0
	// k=1 must return the size (normalisation).
	v1, err := p.IntegralXK(s, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostRel(v1, s, 1e-12) {
		t.Fatalf("∫x = %g, want %g", v1, s)
	}
	// k=2 must agree with K(b)·s²/d.
	v2, err := p.IntegralXK(s, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.VarianceFactor() * s * s / d; !almostRel(v2, want, 1e-12) {
		t.Fatalf("∫x² = %g, want %g", v2, want)
	}
	// k=3 vs quadrature.
	v3, err := p.IntegralXK(s, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := simpson(func(t float64) float64 { return math.Pow(p.Rate(s, d, t), 3) }, 0, d, 8192)
	if !almostRel(v3, want, 1e-6) {
		t.Fatalf("∫x³ = %g, quadrature %g", v3, want)
	}
	if _, err := p.IntegralXK(s, d, 0); err == nil {
		t.Fatal("order 0 should be rejected")
	}
	if v, _ := p.IntegralXK(s, 0, 2); v != 0 {
		t.Fatal("zero duration should integrate to 0")
	}
}

func TestCrossCovAtZeroEqualsIntegralX2(t *testing.T) {
	// At τ = 0 the integrand is v^{2b}. The closed form (integer b) and the
	// graded rule at a half-integer b, where v^{2b} is a polynomial, agree
	// to 1e-9; at other real b the graded rule holds its stated 1e-6.
	for _, c := range []struct{ b, tol float64 }{
		{0, 1e-9}, {1, 1e-9}, {2, 1e-9}, {2.5, 1e-9}, {4, 1e-9},
		{0.02, 1e-6}, {0.3, 1e-6}, {1.7, 1e-6}, {2.95, 1e-6}, {5.3, 1e-6},
	} {
		p := PowerShot{B: c.b}
		s, d := 2e5, 4.0
		if got, want := p.CrossCov(s, d, 0), p.VarianceFactor()*s*s/d; !almostRel(got, want, c.tol) {
			t.Fatalf("b=%g: CrossCov(0) = %g, want %g", c.b, got, want)
		}
	}
}

func TestCrossCovRectangularClosedForm(t *testing.T) {
	// For b=0: ∫ x·x = (s/d)²·(d-τ) = s²/d·(1-τ/d).
	p := Rectangular
	s, d := 8e4, 2.0
	for _, tau := range []float64{0, 0.5, 1, 1.9} {
		want := s * s / d * (1 - tau/d)
		if got := p.CrossCov(s, d, tau); !almostRel(got, want, 1e-12) {
			t.Fatalf("τ=%g: got %g, want %g", tau, got, want)
		}
	}
}

func TestCrossCovIntegerMatchesQuadrature(t *testing.T) {
	// The binomial closed form for integer b must agree with Simpson.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		b := float64(rng.Intn(5))
		s := 1e4 + rng.Float64()*1e6
		d := 0.5 + rng.Float64()*10
		tau := rng.Float64() * d
		p := PowerShot{B: b}
		a := s * (b + 1) / math.Pow(d, b+1)
		want := a * a * simpson(func(t float64) float64 {
			return math.Pow(t, b) * math.Pow(t+tau, b)
		}, 0, d-tau, 8192)
		got := p.CrossCov(s, d, tau)
		if !almostRel(got, want, 1e-6) {
			t.Fatalf("b=%g τ=%g: closed form %g vs quadrature %g", b, tau, got, want)
		}
	}
}

// gradedOracle integrates f over [0, hi] for an integrand singular at 0:
// the 8-point Gauss–Legendre rule on n equal parts of [0, hi], with the
// first part split again into halves [w/2, w], [w/4, w/2], … down to
// 1e-14·hi and one rule below that. It grades far finer than the
// production rules it checks; n > 1 also resolves steep growth toward hi.
func gradedOracle(f func(float64) float64, hi float64, n int) float64 {
	w := hi / float64(n)
	var sum float64
	for j := 1; j < n; j++ {
		sum += gaussLegendre8(f, float64(j)*w, float64(j+1)*w)
	}
	for floor := 1e-14 * hi; w > floor; w /= 2 {
		sum += gaussLegendre8(f, w/2, w)
	}
	return sum + gaussLegendre8(f, 0, w)
}

// Real-b CrossCov must track a finely graded integral of a²·t^b·(t+τ)^b,
// the unfactorised form, within 1e-6 relative over the exponents a fit
// produces and every lag, and within 2e-4 at exponents up to 15, where the
// integrand's growth toward v = 1 outpaces eight nodes.
func TestCrossCovRealBMatchesGradedOracle(t *testing.T) {
	s, d := 3e5, 4.0
	check := func(bs []float64, tol float64) {
		worst := 0.0
		for _, b := range bs {
			p := PowerShot{B: b}
			a := s * (b + 1) / math.Pow(d, b+1)
			for _, r := range []float64{0, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.999} {
				tau := r * d
				want := a * a * gradedOracle(func(t float64) float64 {
					return math.Pow(t, b) * math.Pow(t+tau, b)
				}, d-tau, 1)
				got := p.CrossCov(s, d, tau)
				rel := relDiff(got, want)
				worst = max(worst, rel)
				if rel > tol {
					t.Errorf("b=%g τ/D=%g: CrossCov %g vs oracle %g (rel %g)", b, r, got, want, rel)
				}
			}
		}
		t.Logf("b ∈ %v: worst rel %g", bs, worst)
	}
	check([]float64{0.02, 0.1, 0.3, 0.5, 1.5, 2.7, 2.95, 5.5}, 1e-6)
	check([]float64{7.5, 10.3, 12.7, 14.5, 14.99}, 2e-4)
}

func TestCrossCovProperties(t *testing.T) {
	p := PowerShot{B: 1.7}
	s, d := 1e5, 5.0
	// Symmetric in τ.
	if !almostRel(p.CrossCov(s, d, 1.2), p.CrossCov(s, d, -1.2), 1e-12) {
		t.Fatal("CrossCov not even in τ")
	}
	// Zero at and beyond the duration.
	if p.CrossCov(s, d, 5) != 0 || p.CrossCov(s, d, 7) != 0 {
		t.Fatal("CrossCov must vanish for τ >= d")
	}
	// Non-increasing in τ (true for monotone shots).
	prev := math.Inf(1)
	for tau := 0.0; tau < d; tau += 0.25 {
		v := p.CrossCov(s, d, tau)
		if v > prev+1e-9 {
			t.Fatalf("CrossCov increased at τ=%g", tau)
		}
		prev = v
	}
}

func TestFuncShotConstantMatchesRectangular(t *testing.T) {
	fs, err := NewFuncShot(func(u float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	s, d := 3e5, 2.5
	if !almostRel(fs.Rate(s, d, 1.0), Rectangular.Rate(s, d, 1.0), 1e-9) {
		t.Fatalf("flat FuncShot rate %g vs rectangular %g", fs.Rate(s, d, 1.0), Rectangular.Rate(s, d, 1.0))
	}
	if !almostRel(fs.IntegralX2(s, d), s*s/d, 1e-9) {
		t.Fatal("flat FuncShot ∫x² differs from rectangular")
	}
	for _, tau := range []float64{0, 0.7, 2.0} {
		if !almostRel(fs.CrossCov(s, d, tau), Rectangular.CrossCov(s, d, tau), 1e-6) {
			t.Fatalf("τ=%g: FuncShot crosscov %g vs rect %g",
				tau, fs.CrossCov(s, d, tau), Rectangular.CrossCov(s, d, tau))
		}
	}
}

func TestFuncShotLinearMatchesTriangular(t *testing.T) {
	fs, err := NewFuncShot(func(u float64) float64 { return u })
	if err != nil {
		t.Fatal(err)
	}
	s, d := 1e5, 4.0
	if want := Triangular.VarianceFactor() * s * s / d; !almostRel(fs.IntegralX2(s, d), want, 1e-6) {
		t.Fatalf("linear FuncShot ∫x² = %g vs triangular %g", fs.IntegralX2(s, d), want)
	}
}

func TestFuncShotValidation(t *testing.T) {
	if _, err := NewFuncShot(nil); err == nil {
		t.Fatal("nil shape should be rejected")
	}
	if _, err := NewFuncShot(func(u float64) float64 { return 0 }); err == nil {
		t.Fatal("zero-integral shape should be rejected")
	}
}

func TestShotNames(t *testing.T) {
	if Rectangular.Name() != "rectangular (b=0)" ||
		Triangular.Name() != "triangular (b=1)" ||
		Parabolic.Name() != "parabolic (b=2)" {
		t.Fatal("canonical shot names wrong")
	}
	if (PowerShot{B: 2.5}).Name() != "power (b=2.5)" {
		t.Fatalf("generic name = %q", (PowerShot{B: 2.5}).Name())
	}
}

func TestSimpsonKnownIntegrals(t *testing.T) {
	if got := simpson(math.Sin, 0, math.Pi, 128); !almostRel(got, 2, 1e-8) {
		t.Fatalf("∫sin over [0,π] = %g, want 2", got)
	}
	if got := simpson(func(x float64) float64 { return x * x }, 0, 3, 4); !almostRel(got, 9, 1e-12) {
		t.Fatalf("∫x² over [0,3] = %g, want 9 (Simpson exact for cubics)", got)
	}
	if got := simpson(math.Exp, 1, 1, 64); got != 0 {
		t.Fatalf("empty interval = %g, want 0", got)
	}
	// Odd n is rounded up, tiny n clamped: still accurate.
	if got := simpson(math.Exp, 0, 1, 1); !almostRel(got, math.E-1, 1e-3) {
		t.Fatalf("n=1 integral = %g", got)
	}
}

// simpson integrates f over [a, b] with n subintervals (n rounded up to
// even) using the composite Simpson rule. It is the tests' quadrature
// oracle: production integrals use the Gauss–Legendre rule of shot.go.
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

// FuncShot is a shot built from an arbitrary shape function φ(u) ≥ 0 on
// [0,1] (§V-D suggests log, square-root, exponential alternatives). The
// flow rate is x(t) = (S/D)·φ(t/D)/∫₀¹φ, which satisfies the size
// constraint for any φ. The tests pin it against the closed-form power
// shots and check on it the laws the paper states for any shot
// (Theorem 3).
type FuncShot struct {
	Phi   func(u float64) float64
	norm  float64 // ∫₀¹ φ
	norm2 float64 // ∫₀¹ φ²
}

// NewFuncShot validates φ and precomputes its normalisation integrals.
func NewFuncShot(phi func(float64) float64) (*FuncShot, error) {
	if phi == nil {
		return nil, fmt.Errorf("core: nil shape function")
	}
	norm := simpson(phi, 0, 1, 1024)
	if !(norm > 0) || math.IsInf(norm, 0) || math.IsNaN(norm) {
		return nil, fmt.Errorf("core: shape function must have positive finite integral, got %g", norm)
	}
	norm2 := simpson(func(u float64) float64 { v := phi(u); return v * v }, 0, 1, 1024)
	return &FuncShot{Phi: phi, norm: norm, norm2: norm2}, nil
}

// Rate returns (s/d)·φ(t/d)/∫φ.
func (f *FuncShot) Rate(s, d, t float64) float64 {
	if t < 0 || t > d || d <= 0 {
		return 0
	}
	return s / d * f.Phi(t/d) / f.norm
}

// IntegralX2 returns (s²/d)·∫φ²/(∫φ)².
func (f *FuncShot) IntegralX2(s, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return s * s / d * f.norm2 / (f.norm * f.norm)
}

// CrossCov integrates numerically over the normalised shape.
func (f *FuncShot) CrossCov(s, d, tau float64) float64 {
	if tau < 0 {
		tau = -tau
	}
	if d <= 0 || tau >= d {
		return 0
	}
	u0 := tau / d
	g := func(u float64) float64 { return f.Phi(u) * f.Phi(u+u0) }
	// ∫₀^{d-τ} x(t)x(t+τ)dt = (s/(d·∫φ))² · d·∫₀^{1-u0} φ(u)φ(u+u0) du.
	scale := s / (d * f.norm)
	return scale * scale * d * simpson(g, 0, 1-u0, 512)
}
