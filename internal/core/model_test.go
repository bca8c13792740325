package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/flow"
)

// testFlows draws a reproducible flow population: heavy-ish sizes, durations
// from an independent rate.
func testFlows(n int, seed int64) *FlowPop {
	rng := rand.New(rand.NewSource(seed))
	p := &FlowPop{}
	for range n {
		s := 1e4 * math.Exp(rng.NormFloat64()) // lognormal sizes, bits
		r := 2e4 * math.Exp(0.5*rng.NormFloat64())
		p.Append(s, s/r)
	}
	return p
}

// popOf builds a population from (s, d) pairs.
func popOf(sd ...float64) *FlowPop {
	p := &FlowPop{}
	for i := 0; i+1 < len(sd); i += 2 {
		p.Append(sd[i], sd[i+1])
	}
	return p
}

func TestNewModelValidation(t *testing.T) {
	fl := testFlows(10, 1)
	if _, err := NewModel(0, Triangular, fl); err == nil {
		t.Fatal("lambda 0 should be rejected")
	}
	if _, err := NewModel(10, nil, fl); err == nil {
		t.Fatal("nil shot should be rejected")
	}
	if _, err := NewModel(10, Triangular, nil); err == nil {
		t.Fatal("nil population should be rejected")
	}
	if _, err := NewModel(10, Triangular, &FlowPop{}); err == nil {
		t.Fatal("empty population should be rejected")
	}
	if _, err := NewModel(10, Triangular, popOf(1, 1, -1, 1)); err == nil {
		t.Fatal("negative size should be rejected")
	}
	if _, err := NewModel(10, Triangular, popOf(1, 1, 1, 0)); err == nil {
		t.Fatal("zero duration should be rejected")
	}
	if _, err := NewModel(10, Triangular, popOf(1, math.NaN())); err == nil {
		t.Fatal("NaN duration should be rejected")
	}
}

func TestMeanIsLambdaES(t *testing.T) {
	fl := testFlows(1000, 2)
	var sum float64
	for _, s := range fl.S {
		sum += s
	}
	m, err := NewModel(50, Parabolic, fl)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 * sum / 1000
	if !almostRel(m.Mean(), want, 1e-12) {
		t.Fatalf("mean = %g, want λE[S] = %g", m.Mean(), want)
	}
	// Corollary 1: the mean is shot-independent.
	m2, err := NewModel(50, Rectangular, fl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean() != m2.Mean() {
		t.Fatal("mean must not depend on the shot shape")
	}
}

func TestVarianceFactorsAcrossShapes(t *testing.T) {
	fl := testFlows(2000, 3)
	lb := 0.0
	for i, s := range fl.S {
		lb += s * s / fl.D[i]
	}
	lb = 40 * lb / 2000 // λ·E[S²/D]
	for _, c := range []struct {
		shot PowerShot
		k    float64
	}{
		{Rectangular, 1}, {Triangular, 4.0 / 3.0}, {Parabolic, 9.0 / 5.0},
	} {
		m, err := NewModel(40, c.shot, fl)
		if err != nil {
			t.Fatal(err)
		}
		if !almostRel(m.Variance(), c.k*lb, 1e-9) {
			t.Fatalf("%s: variance %g, want %g·λE[S²/D] = %g",
				c.shot.Name(), m.Variance(), c.k, c.k*lb)
		}
		if !almostRel(m.VarianceLowerBound(), lb, 1e-9) {
			t.Fatalf("lower bound %g, want %g", m.VarianceLowerBound(), lb)
		}
	}
}

// Theorem 3 as a property: for arbitrary power shots and arbitrary flow
// populations, the variance is at least the rectangular-shot variance.
func TestTheorem3Property(t *testing.T) {
	f := func(rawB float64, seed int64) bool {
		b := math.Abs(math.Mod(rawB, 6))
		fl := testFlows(200, seed)
		m, err := NewModel(10, PowerShot{B: b}, fl)
		if err != nil {
			return false
		}
		return m.Variance() >= m.VarianceLowerBound()*(1-1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 3 also holds for arbitrary (non-power) shapes.
func TestTheorem3ForFuncShots(t *testing.T) {
	shapes := map[string]func(float64) float64{
		"sqrt":       math.Sqrt,
		"log":        func(u float64) float64 { return math.Log(1 + 9*u) },
		"exp":        func(u float64) float64 { return math.Exp(3 * u) },
		"hump":       func(u float64) float64 { return u * (1 - u) },
		"front-load": func(u float64) float64 { return 1 - u },
	}
	fl := testFlows(500, 7)
	for name, phi := range shapes {
		fs, err := NewFuncShot(name, phi)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(25, fs, fl)
		if err != nil {
			t.Fatal(err)
		}
		if m.Variance() < m.VarianceLowerBound()*(1-1e-9) {
			t.Fatalf("shape %q violates Theorem 3: var %g < bound %g",
				name, m.Variance(), m.VarianceLowerBound())
		}
	}
}

func TestAutoCovarianceAtZeroIsVariance(t *testing.T) {
	m, err := NewModel(30, Triangular, testFlows(500, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !almostRel(m.AutoCovariance(0), m.Variance(), 1e-9) {
		t.Fatalf("γ(0) = %g, variance %g", m.AutoCovariance(0), m.Variance())
	}
	if !almostRel(m.AutoCorrelation(0), 1, 1e-9) {
		t.Fatalf("ρ(0) = %g, want 1", m.AutoCorrelation(0))
	}
}

// AutoCorrelations computes γ(0) once per curve; every lag must equal
// γ(τ)/γ(0) bit for bit, through CrossCov's closed forms (b = 0, 1, 2), its
// graded integral (b = 2.95), and the zero-variance guard of a hand-built
// model over an empty population.
func TestAutoCorrelationsMatchDefinition(t *testing.T) {
	fl := testFlows(400, 8)
	taus := []float64{0, 0.025, 0.1, 0.4, 1, slices.Max(fl.D), 1e9}
	var models []*Model
	for _, b := range []float64{0, 1, 2, 2.95} {
		m, err := NewModel(30, PowerShot{B: b}, fl)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	models = append(models, &Model{Lambda: 30, Shot: Triangular, Pop: &FlowPop{}})
	for _, m := range models {
		got := m.AutoCorrelations(taus)
		if len(got) != len(taus) {
			t.Fatalf("%v: %d values for %d lags", m.Shot, len(got), len(taus))
		}
		for i, tau := range taus {
			want := 0.0
			if v := m.Variance(); v != 0 {
				want = m.AutoCovariance(tau) / v
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%v, λ %g, pop %d: ρ(%g) = %v, γ(τ)/γ(0) = %v", m.Shot, m.Lambda, m.Pop.Len(), tau, got[i], want)
			}
		}
	}
}

func TestAutoCovarianceDecaysAndVanishes(t *testing.T) {
	fl := testFlows(500, 5)
	maxD := slices.Max(fl.D)
	m, err := NewModel(30, Parabolic, fl)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for tau := 0.0; tau <= maxD; tau += maxD / 20 {
		v := m.AutoCovariance(tau)
		if v > prev+1e-9 {
			t.Fatalf("γ increased at τ=%g", tau)
		}
		if v < 0 {
			t.Fatalf("γ(%g) = %g negative for monotone shots", tau, v)
		}
		prev = v
	}
	if got := m.AutoCovariance(maxD * 1.01); got != 0 {
		t.Fatalf("γ beyond max duration = %g, want 0", got)
	}
}

// σ_Δ² obeys eq. (7)'s laws for every shot, through the integer kernel
// (b = 1) and the per-flow integral (real b): it never exceeds σ², does
// not grow with Δ, and tends to σ² as Δ → 0.
func TestAveragedVarianceProperties(t *testing.T) {
	flows := testFlows(300, 6)
	for _, shot := range []PowerShot{Triangular, {B: 0.5}, {B: 2.7}} {
		m, err := NewModel(30, shot, flows)
		if err != nil {
			t.Fatal(err)
		}
		v := m.Variance()
		small, err := m.AveragedVariance(1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if !almostRel(small, v, 1e-2) {
			t.Fatalf("%s: σ_Δ² for tiny Δ = %g, want ≈ σ² = %g", shot.Name(), small, v)
		}
		// σ_Δ² decreases with Δ (the paper's smoothing-by-averaging).
		prev := v
		for _, delta := range []float64{1e-3, 0.05, 0.2, 1, 5} {
			got, err := m.AveragedVariance(delta)
			if err != nil {
				t.Fatal(err)
			}
			if got > prev+1e-9 {
				t.Fatalf("%s: σ_Δ² increased at Δ=%g", shot.Name(), delta)
			}
			if got > v {
				t.Fatalf("%s: σ_Δ² = %g exceeds σ² = %g", shot.Name(), got, v)
			}
			prev = got
		}
		if _, err := m.AveragedVariance(0); err == nil {
			t.Fatal("Δ=0 should be rejected")
		}
	}
}

func TestCumulantsMatchMoments(t *testing.T) {
	m, err := NewModel(15, Parabolic, testFlows(300, 9))
	if err != nil {
		t.Fatal(err)
	}
	k1, err := m.Cumulant(1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostRel(k1, m.Mean(), 1e-12) {
		t.Fatalf("κ₁ = %g, mean %g", k1, m.Mean())
	}
	k2, err := m.Cumulant(2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostRel(k2, m.Variance(), 1e-12) {
		t.Fatalf("κ₂ = %g, variance %g", k2, m.Variance())
	}
	if _, err := m.Cumulant(0); err == nil {
		t.Fatal("order 0 should be rejected")
	}
	sk, err := m.Skewness()
	if err != nil {
		t.Fatal(err)
	}
	if sk <= 0 {
		t.Fatalf("skewness = %g, want > 0 for positive shots", sk)
	}
}

// NewModel rejects an empty population, but a hand-built Model can carry
// one; the closed-form and quadrature paths of AveragedVariance and the
// Cumulant oracle must return an error rather than the NaN their
// divide-by-len would produce (mirrors the Cumulant(0) rejection above).
func TestEmptyPopulationRejected(t *testing.T) {
	fs, err := NewFuncShot("flat", func(u float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	for _, shot := range []Shot{Parabolic, fs} {
		m := &Model{Lambda: 10, Shot: shot}
		if v, err := m.AveragedVariance(0.2); err == nil {
			t.Fatalf("%s: AveragedVariance on empty population = %g, want error", shot.Name(), v)
		}
		if v, err := m.Cumulant(2); err == nil {
			t.Fatalf("%s: Cumulant on empty population = %g, want error", shot.Name(), v)
		}
	}
}

// The closed-form eq.(7) path divides by the population size; a hand-built
// Model with no flows must surface an error from the transform faces and
// exact zeros from the moment faces, never NaN.
func TestEmptyPopulationMomentFaces(t *testing.T) {
	m := &Model{Lambda: 10, Shot: Triangular}
	if _, err := m.AveragedVariance(0.2); err == nil {
		t.Fatal("AveragedVariance on empty population should error, not NaN")
	}
	if _, err := m.LogMGF(1e-6); err == nil {
		t.Fatal("LogMGF on empty population should error")
	}
	if v := m.Variance(); v != 0 {
		t.Fatalf("Variance on empty population = %g, want 0", v)
	}
	if v := m.Mean(); v != 0 {
		t.Fatalf("Mean on empty population = %g, want 0", v)
	}
	if v := m.VarianceLowerBound(); v != 0 {
		t.Fatalf("VarianceLowerBound on empty population = %g, want 0", v)
	}
	if v := m.CoV(); v != 0 {
		t.Fatalf("CoV on empty population = %g, want 0", v)
	}
	if v := m.AutoCovariance(0.1); v != 0 {
		t.Fatalf("AutoCovariance on empty population = %g, want 0", v)
	}
	if v := m.SpectralDensity(1); v != 0 {
		t.Fatalf("SpectralDensity on empty population = %g, want 0", v)
	}
}

// WithLambda shares the population and moments, so every derived quantity
// must equal a model rebuilt from scratch at the new rate — exactly, since
// the arithmetic paths are identical.
func TestWithLambdaMatchesRebuild(t *testing.T) {
	fl := testFlows(400, 16)
	base, err := NewModel(25, Triangular, fl)
	if err != nil {
		t.Fatal(err)
	}
	for _, mult := range []float64{0.25, 1, 3, 16} {
		scaled, err := base.WithLambda(25 * mult)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewModel(25*mult, Triangular, fl)
		if err != nil {
			t.Fatal(err)
		}
		if scaled.Mean() != want.Mean() {
			t.Fatalf("mult %g: mean %g != %g", mult, scaled.Mean(), want.Mean())
		}
		if scaled.Variance() != want.Variance() {
			t.Fatalf("mult %g: variance %g != %g", mult, scaled.Variance(), want.Variance())
		}
		av1, err1 := scaled.AveragedVariance(0.2)
		av2, err2 := want.AveragedVariance(0.2)
		if err1 != nil || err2 != nil || av1 != av2 {
			t.Fatalf("mult %g: σ_Δ² %g != %g (%v, %v)", mult, av1, av2, err1, err2)
		}
		b1, err1 := scaled.Bandwidth(0.01)
		b2, err2 := want.Bandwidth(0.01)
		if err1 != nil || err2 != nil || b1 != b2 {
			t.Fatalf("mult %g: bandwidth %g != %g", mult, b1, b2)
		}
	}
	if _, err := base.WithLambda(0); err == nil {
		t.Fatal("λ=0 should be rejected")
	}
	if _, err := base.WithLambda(-3); err == nil {
		t.Fatal("negative λ should be rejected")
	}
	// The base model is untouched.
	if base.Lambda != 25 {
		t.Fatalf("WithLambda mutated the receiver: λ = %g", base.Lambda)
	}
}

// The pooled columnar path must produce bitwise the same moments as the
// allocating path, and a reused pool must carry no state across intervals.
func TestInputFromFlowsPopMatchesAllocating(t *testing.T) {
	flows := []flow.Flow{
		{Start: 0, End: 2, Bytes: 1000, Packets: 3},
		{Start: 1, End: 4, Bytes: 2500, Packets: 5},
		{Start: 5, End: 6, Bytes: 500, Packets: 2},
		{Start: 7, End: 7, Bytes: 100, Packets: 1}, // zero duration: skipped
	}
	ref, err := InputFromFlows(flows, 60)
	if err != nil {
		t.Fatal(err)
	}
	pop := &FlowPop{}
	got, err := InputFromFlowsPop(pop, flows, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lambda != ref.Lambda || got.MeanS != ref.MeanS || got.MeanS2OverD != ref.MeanS2OverD {
		t.Fatalf("pooled moments (%g, %g, %g) != allocating (%g, %g, %g)",
			got.Lambda, got.MeanS, got.MeanS2OverD, ref.Lambda, ref.MeanS, ref.MeanS2OverD)
	}
	if got.Pop != pop || got.Pop.Len() != ref.Pop.Len() {
		t.Fatalf("pooled input does not carry the pool (len %d vs %d)", got.Pop.Len(), ref.Pop.Len())
	}
	// Reuse with a different interval: the pool must reset completely.
	again, err := InputFromFlowsPop(pop, flows[1:3], 30)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Len() != 2 {
		t.Fatalf("reused pool kept stale flows: len %d, want 2", pop.Len())
	}
	ref2, err := InputFromFlows(flows[1:3], 30)
	if err != nil {
		t.Fatal(err)
	}
	if again.Lambda != ref2.Lambda || again.MeanS != ref2.MeanS || again.MeanS2OverD != ref2.MeanS2OverD {
		t.Fatal("reused pool moments diverge from a fresh computation")
	}
	// Models over the pooled and allocating inputs agree exactly.
	mp, err := again.Model(Parabolic)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := ref2.Model(Parabolic)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Variance() != ma.Variance() {
		t.Fatalf("pooled model variance %g != allocating %g", mp.Variance(), ma.Variance())
	}
	if _, err := InputFromFlowsPop(pop, flows[3:], 30); err == nil {
		t.Fatal("interval with no usable flows should error")
	}
	if _, err := InputFromFlowsPop(pop, flows, 0); err == nil {
		t.Fatal("zero interval should be rejected")
	}
}

func TestCumulantFuncShotNumericPath(t *testing.T) {
	fs, err := NewFuncShot("flat", func(u float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	fl := testFlows(100, 10)
	mf, err := NewModel(15, fs, fl)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewModel(15, Rectangular, fl)
	if err != nil {
		t.Fatal(err)
	}
	kf, err := mf.Cumulant(3)
	if err != nil {
		t.Fatal(err)
	}
	kr, err := mr.Cumulant(3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostRel(kf, kr, 1e-6) {
		t.Fatalf("numeric cumulant %g vs closed form %g", kf, kr)
	}
}

// Cumulant's closed form (IntegralXK) must match quadrature of x(t)^k, so
// the oracle the moment faces are checked against is itself pinned to the
// integral truth.
func TestCumulantClosedFormMatchesQuadrature(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	flows := &FlowPop{}
	for range 40 {
		flows.Append(1e4+rng.Float64()*1e6, 0.1+rng.Float64()*10)
	}
	for _, b := range []float64{0, 1, 2, 4} {
		m, err := NewModel(80, PowerShot{B: b}, flows)
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
				d := flows.D[i]
				sum += simpson(func(u float64) float64 {
					return math.Pow(m.Shot.Rate(s, d, u), float64(k))
				}, 0, d, 4096)
			}
			want := m.Lambda * sum / float64(flows.Len())
			if math.Abs(got-want) > 1e-5*math.Abs(want) {
				t.Fatalf("b=%g k=%d: closed form %v, quadrature %v", b, k, got, want)
			}
		}
	}
}

func TestSpectralDensity(t *testing.T) {
	fl := testFlows(100, 11)
	m, err := NewModel(15, Rectangular, fl)
	if err != nil {
		t.Fatal(err)
	}
	// Γ(0) = λ/(2π)·E[S²] because X̂(0) = ∫x = S.
	var s2 float64
	for _, s := range fl.S {
		s2 += s * s
	}
	want := 15 / (2 * math.Pi) * s2 / float64(fl.Len())
	if got := m.SpectralDensity(0); !almostRel(got, want, 1e-3) {
		t.Fatalf("Γ(0) = %g, want λE[S²]/2π = %g", got, want)
	}
	// Non-negative, decaying envelope at high frequency.
	if g := m.SpectralDensity(100); g < 0 || g > m.SpectralDensity(0) {
		t.Fatalf("Γ(100) = %g out of range", g)
	}
}

func TestGaussianApproxAndDimensioning(t *testing.T) {
	m, err := NewModel(200, Triangular, testFlows(2000, 12))
	if err != nil {
		t.Fatal(err)
	}
	mu := m.Mean()
	// Bandwidth/ExceedProb round trip: P(R > C(ε)) = ε.
	for _, eps := range []float64{0.001, 0.01, 0.05, 0.3} {
		c, err := m.Bandwidth(eps)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.ExceedProb(c); !almostRel(got, eps, 1e-6) {
			t.Fatalf("ExceedProb(Bandwidth(%g)) = %g", eps, got)
		}
	}
	// Smaller ε needs more capacity.
	c1, _ := m.Bandwidth(0.01)
	c5, _ := m.Bandwidth(0.05)
	if c1 <= c5 {
		t.Fatalf("C(0.01) = %g should exceed C(0.05) = %g", c1, c5)
	}
	// The 50% point is the mean.
	c50, _ := m.Bandwidth(0.5)
	if !almostRel(c50, mu, 1e-9) {
		t.Fatalf("C(0.5) = %g, want mean %g", c50, mu)
	}
	if _, err := m.Bandwidth(0); err == nil {
		t.Fatal("ε=0 should be rejected")
	}
	if _, err := m.Bandwidth(1); err == nil {
		t.Fatal("ε=1 should be rejected")
	}
}

// The §VII-A smoothing law: at fixed flow population, CoV ∝ 1/√λ.
func TestSmoothingWithLambda(t *testing.T) {
	fl := testFlows(1000, 13)
	m1, err := NewModel(10, Triangular, fl)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := NewModel(40, Triangular, fl)
	if err != nil {
		t.Fatal(err)
	}
	if !almostRel(m1.CoV()/m4.CoV(), 2, 1e-9) {
		t.Fatalf("CoV ratio for λ×4 = %g, want 2 (1/√λ law)", m1.CoV()/m4.CoV())
	}
	// Mean scales linearly, σ as √λ.
	if !almostRel(m4.Mean(), 4*m1.Mean(), 1e-12) {
		t.Fatal("mean not linear in λ")
	}
	if !almostRel(m4.StdDev(), 2*m1.StdDev(), 1e-9) {
		t.Fatal("σ not √λ")
	}
}

func TestInputFromFlows(t *testing.T) {
	flows := []flow.Flow{
		{Start: 0, End: 2, Bytes: 1000, Packets: 3}, // S=8000 bits, D=2
		{Start: 5, End: 6, Bytes: 500, Packets: 2},  // S=4000, D=1
		{Start: 7, End: 7, Bytes: 100, Packets: 1},  // zero duration: skipped
	}
	in, err := InputFromFlows(flows, 60)
	if err != nil {
		t.Fatal(err)
	}
	if in.Pop.Len() != 2 {
		t.Fatalf("population = %d, want 2", in.Pop.Len())
	}
	if !almostRel(in.Lambda, 2.0/60, 1e-12) {
		t.Fatalf("λ = %g, want 1/30", in.Lambda)
	}
	if !almostRel(in.MeanS, 6000, 1e-12) {
		t.Fatalf("E[S] = %g, want 6000", in.MeanS)
	}
	want := (8000.0*8000/2 + 4000.0*4000/1) / 2
	if !almostRel(in.MeanS2OverD, want, 1e-12) {
		t.Fatalf("E[S²/D] = %g, want %g", in.MeanS2OverD, want)
	}
	m, err := in.Model(Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	if !almostRel(m.Mean(), in.Lambda*in.MeanS, 1e-12) {
		t.Fatal("model from input inconsistent")
	}
	if _, err := InputFromFlows(flows, 0); err == nil {
		t.Fatal("zero interval should be rejected")
	}
	if _, err := InputFromFlows(nil, 60); err == nil {
		t.Fatal("no flows should error")
	}
}

func TestFitPowerBRoundTrip(t *testing.T) {
	fl := testFlows(2000, 14)
	for _, b := range []float64{0, 0.5, 1, 2, 3.7} {
		m, err := NewModel(35, PowerShot{B: b}, fl)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := FitPowerB(m.Variance(), m.Lambda, m.Pop.MeanS2OverD())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("fit reported ζ<1 for b=%g", b)
		}
		// Near ζ=1 the √(ζ(ζ-1)) term amplifies float eps to ~1e-8, so the
		// absolute tolerance is looser than the relative one.
		if !almostRel(got, b, 1e-6) && math.Abs(got-b) > 1e-6 {
			t.Fatalf("b̂ = %g, want %g", got, b)
		}
	}
}

func TestFitPowerBClampsBelowBound(t *testing.T) {
	// Measured variance below the Theorem 3 bound (averaging artefact).
	b, ok, err := FitPowerB(0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok || b != 0 {
		t.Fatalf("expected clamp to rectangular, got b=%g ok=%v", b, ok)
	}
	if _, _, err := FitPowerB(1, 0, 1); err == nil {
		t.Fatal("λ=0 should be rejected")
	}
	if _, _, err := FitPowerB(-1, 1, 1); err == nil {
		t.Fatal("negative variance should be rejected")
	}
}

// FitPowerBAveraged must invert Model.AveragedVariance: fitting a model's
// own σ_Δ² recovers its exponent, real or integer, at every Δ. The fit
// reads the population columns, so an input from the pooled builder must
// fit exactly what one from the allocating builder fits.
func TestFitPowerBAveragedPooledInput(t *testing.T) {
	fl := testFlows(200, 21)
	flows := make([]flow.Flow, fl.Len())
	for i, s := range fl.S {
		flows[i] = flow.Flow{End: fl.D[i], Bytes: int64(s/8) + 1, Packets: 2}
	}
	ref, err := InputFromFlows(flows, 60)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := InputFromFlowsPop(&FlowPop{}, flows, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{0.5, 1, 1.5, 2, 2.7} {
		m, err := ref.Model(PowerShot{B: b})
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []float64{0.05, 0.2, 1} {
			v, err := m.AveragedVariance(delta)
			if err != nil {
				t.Fatal(err)
			}
			want, okW, err := FitPowerBAveraged(v, delta, ref)
			if err != nil {
				t.Fatal(err)
			}
			got, okG, err := FitPowerBAveraged(v, delta, pooled)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || okG != okW {
				t.Fatalf("b=%g Δ=%g: pooled fit (%g, %v) != allocating fit (%g, %v)",
					b, delta, got, okG, want, okW)
			}
			if !okW || math.Abs(want-b) > 2e-4 {
				t.Errorf("b=%g Δ=%g: fit of the model's own σ_Δ² = (%g, %v)", b, delta, want, okW)
			}
		}
	}
	if _, _, err := FitPowerBAveraged(1, 0.2, Input{Lambda: ref.Lambda, MeanS2OverD: ref.MeanS2OverD}); err == nil {
		t.Fatal("an input without a population should be rejected")
	}
}

// Cumulant, Skewness and SpectralDensity are model identities the tests
// check the moment and auto-covariance faces against.

// Cumulant returns the k-th cumulant of R(t), κ_k = λ·E[∫₀^D X(u)^k du]
// (Campbell's theorem; Corollary 3 in LST form): κ₁ is the Mean, κ₂ the
// Variance, κ₃ drives the skewness. PowerShots take the closed form; other
// shots are integrated numerically through Rate.
func (m *Model) Cumulant(k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: cumulant order must be >= 1, got %d", k)
	}
	pop := m.Pop
	n := pop.Len()
	if n == 0 {
		return 0, fmt.Errorf("core: cumulant needs a non-empty flow population")
	}
	var sum float64
	if ps, ok := m.Shot.(PowerShot); ok {
		// ∫X^k = s^k·(b+1)^k / (d^{k-1}·(kb+1)): the (b+1)^k/(kb+1) factor
		// is flow-independent, and the flow powers are small-integer, so the
		// loop is pure powi (kernel_test.go's IntegralXK is the per-flow
		// form).
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

// Skewness returns κ₃/κ₂^(3/2) of the total rate, a check on how far the
// Gaussian approximation of §V-E can be trusted (it decays as 1/√λ).
func (m *Model) Skewness() (float64, error) {
	k2, err := m.Cumulant(2)
	if err != nil {
		return 0, err
	}
	if k2 <= 0 {
		return 0, fmt.Errorf("core: non-positive variance")
	}
	k3, err := m.Cumulant(3)
	if err != nil {
		return 0, err
	}
	return k3 / math.Pow(k2, 1.5), nil
}

// SpectralDensity returns the power spectral density Γ(ω) of the centred
// total rate at angular frequency ω (rad/s): Γ(ω) = λ/(2π)·E[|X̂(ω)|²]
// where X̂ is the Fourier transform of the shot (§V-B). Integer-b
// PowerShots take the closed form (powerShotFT); other shots are evaluated
// by quadrature per flow sample.
func (m *Model) SpectralDensity(omega float64) float64 {
	pop := m.Pop
	n := pop.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	if ps, ok := m.Shot.(PowerShot); ok && ps.B >= 0 && ps.B == math.Trunc(ps.B) {
		// X̂(ω) = s·(b+1)·∫₀¹ u^b e^{iωdu} du for X(t) = s(b+1)/d^{b+1}·t^b.
		for i := 0; i < n; i++ {
			x := complex(pop.S[i]*(ps.B+1), 0) * powerShotFT(int(ps.B), omega*pop.D[i])
			sum += real(x)*real(x) + imag(x)*imag(x)
		}
		return m.Lambda / (2 * math.Pi) * sum / float64(n)
	}
	for i := 0; i < n; i++ {
		s, d := pop.S[i], pop.D[i]
		re := simpson(func(t float64) float64 { return m.Shot.Rate(s, d, t) * math.Cos(omega*t) }, 0, d, 256)
		im := simpson(func(t float64) float64 { return m.Shot.Rate(s, d, t) * math.Sin(omega*t) }, 0, d, 256)
		sum += re*re + im*im
	}
	return m.Lambda / (2 * math.Pi) * sum / float64(n)
}

// powerShotFT returns ∫₀¹ u^b e^{iθu} du for an integer b >= 0: its power
// series Σ (iθ)ⁿ/(n!·(b+n+1)) when |θ| < 1, where the recurrence below
// would cancel, else integration by parts, I_k = (e^{iθ} − k·I_{k−1})/(iθ)
// from I_0 = (e^{iθ} − 1)/(iθ).
func powerShotFT(b int, theta float64) complex128 {
	ith := complex(0, theta)
	if math.Abs(theta) < 1 {
		var sum complex128
		term := complex(1, 0) // (iθ)ⁿ/n!
		for n := 0; n < 24; n++ {
			sum += term / complex(float64(b+n+1), 0)
			term *= ith / complex(float64(n+1), 0)
		}
		return sum
	}
	e := cmplx.Exp(ith)
	in := (e - 1) / ith
	for k := 1; k <= b; k++ {
		in = (e - complex(float64(k), 0)*in) / ith
	}
	return in
}
