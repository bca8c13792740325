package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist/rng"
)

// Kernel-vs-scalar differentials for the coefficient-cached kernels, the
// model-math counterpart of the flow.Measurer map-reference tests: the
// scalar closed forms (avgVarCrossInt, IntegralXK, quadrature LogMGF) are the
// oracles, and the kernels must track them over adversarial (s, d, Δ, θ) —
// branch edges d ≪ Δ and d ≫ Δ, the d ≈ Δ crossover, every b ∈ {0..10},
// and subnormal-adjacent arguments.

// avgVarTol is the allowed kernel-vs-scalar divergence for eq.(7) at shot
// exponent b. Through b = 5 the two agree to 1e-12. Above that the bound
// tracks the scalar oracle's own conditioning: its alternating binomial sum
// cancels catastrophically as b grows (the closedFormB cliff — C(2b+1,k)
// terms amplify rounding by ~8× per unit of b), so the differently-grouped
// kernel and scalar drift apart at exactly that rate. Measured worst cases
// run ~4-10× below this envelope.
func avgVarTol(b int) float64 {
	if b <= 5 {
		return 1e-12
	}
	return 1e-12 * math.Pow(8, float64(b-5))
}

// relDiff is the symmetric relative difference, 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// adversarial (d/Δ) ratios: deep into both branches, the crossover from
// both sides (including within-one-ulp approaches), and far tails.
var adversarialRatios = []float64{
	1e-9, 1e-6, 1e-3, 0.125, 0.5, 0.9, 0.99, 0.999, 0.9999999999,
	1, 1.0000000001, 1.001, 1.01, 1.1, 1.5, 2, 8, 64, 1e3, 1e6, 1e9,
}

func TestAvgVarKernelMatchesScalar(t *testing.T) {
	deltas := []float64{1e-3, 0.05, 0.2, 1, 10}
	sizes := []float64{1e-30, 1e-3, 1, 1.7e4, 1e30}
	for b := 0; b <= 10; b++ {
		ps := PowerShot{B: float64(b)}
		tol := avgVarTol(b)
		k10 := 0.0
		for _, delta := range deltas {
			k, err := NewAvgVarKernel(b, delta)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range adversarialRatios {
				d := delta * r
				for _, s := range sizes {
					want := ps.avgVarCrossInt(s, d, delta)
					got := k.crossInt(s*s, d, 1/d)
					if rel := relDiff(got, want); rel > tol {
						t.Errorf("b=%d s=%g d=%g delta=%g: kernel %g vs scalar %g (rel %g > %g)",
							b, s, d, delta, got, want, rel, tol)
					}
					if got > k10 {
						k10 = got
					}
				}
			}
		}
	}
}

// At extreme size scales the scalar oracle underflows in its intermediate
// a² = (s(b+1)/d^{b+1})² while the kernel's s²-homogeneous form survives.
// The integral is exactly s²-homogeneous, so the scalar at s = 1 rescaled
// by s² is a well-conditioned oracle at any s: the kernel must match it
// even where the direct scalar call collapses to zero.
func TestAvgVarKernelSurvivesScalarUnderflow(t *testing.T) {
	const s = 1e-150
	const delta = 0.05
	for _, b := range []int{2, 4, 10} {
		ps := PowerShot{B: float64(b)}
		k, err := NewAvgVarKernel(b, delta)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{1e-3, 1, 1e3, 1e6} {
			d := delta * r
			want := s * s * ps.avgVarCrossInt(1, d, delta) // rescaled oracle
			got := k.crossInt(s*s, d, 1/d)
			if !(got > 0) {
				t.Fatalf("b=%d d=%g: kernel underflowed to %g", b, d, got)
			}
			if rel := relDiff(got, want); rel > avgVarTol(b) {
				t.Errorf("b=%d d=%g: kernel %g vs rescaled scalar %g (rel %g)", b, d, got, want, rel)
			}
			if direct := ps.avgVarCrossInt(s, d, delta); d >= delta && direct != 0 {
				t.Logf("b=%d d=%g: direct scalar survived with %g", b, d, direct)
			}
		}
	}
}

// Model.AveragedVariance builds its (b, Δ) kernel per call, and the
// experiment runner and flowd evaluate prebuilt kernels straight over their
// pooled populations: the two faces must agree bit for bit at every Δ,
// repeated Δs included, so moving a caller between them moves no output.
func TestAveragedVarianceMatchesSuiteKernel(t *testing.T) {
	flows := testFlows(300, 31)
	deltas := []float64{0.01, 0.05, 0.2, 0.2, 1, 5, 40}
	for _, b := range []int{0, 1, 2, 7} {
		m, err := NewModel(120, PowerShot{B: float64(b)}, flows)
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range deltas {
			k, err := NewAvgVarKernel(b, delta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := k.AveragedVariance(m.Lambda, flows)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.AveragedVariance(delta)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("b=%d delta=%g: model face %g != kernel %g", b, delta, got, want)
			}
		}
	}
	m, err := NewModel(120, Triangular, flows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AveragedVariance(-1); err == nil {
		t.Fatal("negative delta must error")
	}
}

// Cumulant's hoisted powi loop must track the per-flow IntegralXK oracle.
func TestCumulantMatchesIntegralXKOracle(t *testing.T) {
	flows := testFlows(200, 33)
	for _, b := range []float64{0, 1, 2, 3.5, 10} {
		ps := PowerShot{B: b}
		m, err := NewModel(60, ps, flows)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 4; k++ {
			got, err := m.Cumulant(k)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for i, s := range flows.S {
				v, err := ps.IntegralXK(s, flows.D[i], k)
				if err != nil {
					t.Fatal(err)
				}
				sum += v
			}
			want := m.Lambda * sum / float64(flows.Len())
			if rel := relDiff(got, want); rel > 1e-12 {
				t.Errorf("b=%g k=%d: cumulant %g vs oracle %g (rel %g)", b, k, got, want, rel)
			}
		}
	}
}

// The closed-form log-MGF must track a fine Simpson quadrature of the
// integrand (the pre-kernel scalar path) for every integer b.
func TestLogMGFClosedFormMatchesQuadrature(t *testing.T) {
	flows := testFlows(40, 34)
	for _, b := range []float64{0, 1, 2, 4} {
		ps := PowerShot{B: b}
		m, err := NewModel(10, ps, flows)
		if err != nil {
			t.Fatal(err)
		}
		mu := m.Mean()
		for _, theta := range []float64{1e-9 / mu * 1e9, 0.5 / mu, 2 / mu} {
			got, err := m.LogMGF(theta)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for i, s := range flows.S {
				d := flows.D[i]
				sum += simpson(func(u float64) float64 {
					return math.Expm1(theta * ps.Rate(s, d, u))
				}, 0, d, 4096)
			}
			want := m.Lambda * sum / float64(flows.Len())
			if rel := relDiff(got, want); rel > 1e-8 {
				t.Errorf("b=%g theta=%g: closed form %g vs quadrature %g (rel %g)", b, theta, got, want, rel)
			}
		}
	}
}

// The log-MGF kernel's closed form holds for every real b > 0: it must
// match a finely graded integral of the integrand, whose t^b singularity
// at 0 Simpson cannot resolve, from a gentle θ to one deep in the tail.
func TestLogMGFRealBMatchesGradedOracle(t *testing.T) {
	flows := testFlows(40, 34)
	worst := 0.0
	for _, b := range []float64{0.1, 0.5, 1.5, 2.7, 2.95, 5.5, 12} {
		ps := PowerShot{B: b}
		m, err := NewModel(10, ps, flows)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []float64{1e-3, 0.5, 2, 10} {
			theta := k / m.Mean()
			got, err := m.LogMGF(theta)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for i, s := range flows.S {
				d := flows.D[i]
				sum += gradedOracle(func(u float64) float64 {
					return math.Expm1(theta * ps.Rate(s, d, u))
				}, d, 256)
			}
			want := m.Lambda * sum / float64(flows.Len())
			rel := relDiff(got, want)
			worst = max(worst, rel)
			if rel > 1e-12 {
				t.Errorf("b=%g θ·E[R]=%g: kernel %g vs graded oracle %g (rel %g)", b, k, got, want, rel)
			}
		}
	}
	t.Logf("worst rel %g", worst)
}

// Shots outside the power family integrate the log-MGF numerically; on the
// smooth exponential shape that must match a fine Simpson rule at the θ a
// Chernoff search visits (its Gaussian start k/σ and the doublings after).
func TestLogMGFFuncShotMatchesSimpson(t *testing.T) {
	expShot, err := NewFuncShot("exponential", math.Exp)
	if err != nil {
		t.Fatal(err)
	}
	flows := testFlows(100, 22)
	m, err := NewModel(100, expShot, flows)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, k := range []float64{0.5, 1, 2, 4, 8, 16} {
		theta := k / m.StdDev()
		got, err := m.LogMGF(theta)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i, s := range flows.S {
			d := flows.D[i]
			sum += simpson(func(u float64) float64 {
				return math.Expm1(theta * expShot.Rate(s, d, u))
			}, 0, d, 8192)
		}
		want := m.Lambda * sum / float64(flows.Len())
		rel := relDiff(got, want)
		worst = max(worst, rel)
		if rel > 1e-8 {
			t.Errorf("θ·σ=%g: Gauss–Legendre %g vs Simpson %g (rel %g)", k, got, want, rel)
		}
	}
	t.Logf("worst rel %g", worst)
}

// gammaLowerExpM1 must overflow to +Inf exactly where the integral does,
// and agree with the complementary small-x series region smoothly.
func TestGammaLowerExpM1Extremes(t *testing.T) {
	if v := gammaLowerExpM1(0.5, 800); !math.IsInf(v, 1) {
		t.Fatalf("H(0.5, 800) = %g, want +Inf", v)
	}
	if v := gammaLowerExpM1(1, 0); v != 0 {
		t.Fatalf("H(1, 0) = %g, want 0", v)
	}
	// Large-but-finite x: H(1, x) = e^x - 1 - x exactly (a = 1).
	for _, x := range []float64{0.5, 5, 50, 500} {
		want := math.Expm1(x) - x
		got := gammaLowerExpM1(1, x)
		if rel := relDiff(got, want); rel > 1e-13 {
			t.Errorf("H(1, %g) = %g, want %g (rel %g)", x, got, want, rel)
		}
	}
}

// Randomised sweep: kernels against scalars over lognormal populations with
// mixed branch occupancy, exercising the accumulation (not just single
// flows).
func TestKernelPopulationSweep(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 50 + r.Intn(200)
		flows := &FlowPop{}
		for range n {
			s := 1e4 * math.Exp(1.5*r.Norm())
			d := 0.05 * math.Exp(2*r.Norm()) // straddles Δ = 0.2 heavily
			flows.Append(s, d)
		}
		b := r.Intn(11)
		delta := 0.2 * math.Exp(r.Norm())
		lambda := 1 + 400*r.Float64()
		m, err := NewModel(lambda, PowerShot{B: float64(b)}, flows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AveragedVariance(delta)
		if err != nil {
			t.Fatal(err)
		}
		ps := PowerShot{B: float64(b)}
		var sum float64
		for i, s := range flows.S {
			sum += ps.avgVarCrossInt(s, flows.D[i], delta)
		}
		want := 2 / delta * lambda * sum / float64(n)
		if rel := relDiff(got, want); rel > avgVarTol(b) {
			t.Errorf("trial %d b=%d delta=%g: kernel face %g vs scalar sum %g (rel %g)",
				trial, b, delta, got, want, rel)
		}
	}
}

// The scalar closed forms below are the per-flow oracles the kernels and the
// Cumulant oracle are pinned against; production evaluates eq. (7) only
// through the kernels.

// IntegralXK returns ∫₀^D x(t)^k dt = s^k·(b+1)^k / (d^(k-1)·(kb+1)),
// needed for moments of order k (Corollary 3): the k-th cumulant of the
// total rate is λ·E[∫X^k].
func (p PowerShot) IntegralXK(s, d float64, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: moment order must be >= 1, got %d", k)
	}
	if d <= 0 {
		return 0, nil
	}
	kk := float64(k)
	return math.Pow(s, kk) * math.Pow(p.B+1, kk) / (math.Pow(d, kk-1) * (kk*p.B + 1)), nil
}

// avgVarCrossInt returns ∫₀^{min(Δ,d)} (1 - τ/Δ)·CrossCov(s,d,τ) dτ in
// closed form for integer b (the integrand is a polynomial in τ):
// expanding (d-τ)^q binomially inside CrossCov's Σ_j C(b,j)τ^{b-j}(d-τ)^q/q
// reduces the integral to monomials. It lets AveragedVariance evaluate the
// eq.(7) smoothing with one pass over the flow population instead of one
// pass per quadrature point. Callers must hold closedFormB's ok — the
// applicability depends only on the exponent, not on the flow.
func (p PowerShot) avgVarCrossInt(s, d, delta float64) float64 {
	b := int(p.B)
	if d <= 0 || delta <= 0 {
		return 0
	}
	m := delta
	if d < m {
		m = d
	}
	a := s * (p.B + 1) / powi(d, b+1)
	var total float64
	for j := 0; j <= b; j++ {
		pj := b - j    // τ exponent of the CrossCov term
		q := b + j + 1 // (d-τ) exponent
		var inner float64
		sign := 1.0
		for k := 0; k <= q; k++ {
			mk1 := powi(m, pj+k+1)
			inner += sign * binomial(q, k) * powi(d, q-k) *
				(mk1/float64(pj+k+1) - mk1*m/(float64(pj+k+2)*delta))
			sign = -sign
		}
		total += binomial(b, j) / float64(q) * inner
	}
	return a * a * total
}
