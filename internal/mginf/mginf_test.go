package mginf

import (
	"math"
	"repro/internal/dist/rng"
	"testing"

	"repro/internal/dist"
	"repro/internal/stats"
)

func TestNewValidation(t *testing.T) {
	e, _ := dist.NewExponential(1)
	if _, err := New(0, e); err == nil {
		t.Fatal("lambda 0 should be rejected")
	}
	if _, err := New(1, nil); err == nil {
		t.Fatal("nil service should be rejected")
	}
	p, _ := dist.NewPareto(0.9, 1) // infinite mean
	if _, err := New(1, p); err == nil {
		t.Fatal("infinite-mean service should be rejected (stability condition)")
	}
}

func TestLoad(t *testing.T) {
	e, _ := dist.NewExponential(0.5) // mean 2
	q, err := New(10, e)
	if err != nil {
		t.Fatal(err)
	}
	if q.Load() != 20 {
		t.Fatalf("load = %g, want 20", q.Load())
	}
}

func TestConstantRateVariance(t *testing.T) {
	e, _ := dist.NewExponential(0.5) // mean 2
	q, _ := New(10, e)               // ρ = 20
	if got := q.ConstantRateVariance(3); got != 9*20 {
		t.Fatalf("Var(rN) = %g, want 180", got)
	}
}

// The insensitivity property: N(t) is Poisson(ρ) for any service
// distribution with the same mean.
func TestSimulateInsensitivity(t *testing.T) {
	services := []dist.Sampler{}
	e, _ := dist.NewExponential(0.5) // mean 2
	services = append(services, e)
	u, _ := dist.NewUniform(1, 3) // mean 2
	services = append(services, u)
	bp, _ := dist.NewBoundedPareto(1.5, 0.5, 50) // heavy-ish, mean ≈ 1.46
	for i, svc := range services {
		q, err := New(10, svc)
		if err != nil {
			t.Fatal(err)
		}
		rho := q.Load()
		rng := rng.New(int64(100 + i))
		samples, err := q.Simulate(2000, 0.25, rng)
		if err != nil {
			t.Fatal(err)
		}
		m := stats.Mean(samples)
		v := stats.PopVariance(samples)
		if math.Abs(m-rho)/rho > 0.05 {
			t.Fatalf("service %d: mean N = %g, want ρ = %g", i, m, rho)
		}
		if math.Abs(v-rho)/rho > 0.15 {
			t.Fatalf("service %d: var N = %g, want ρ = %g (Poisson)", i, v, rho)
		}
	}
	_ = bp // heavy-tailed service exercised in the long-duration test below
}

func TestSimulateHeavyTailedService(t *testing.T) {
	bp, err := dist.NewBoundedPareto(1.5, 0.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	q, err := New(20, bp)
	if err != nil {
		t.Fatal(err)
	}
	rho := q.Load()
	rng := rng.New(7)
	samples, err := q.Simulate(3000, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m := stats.Mean(samples); math.Abs(m-rho)/rho > 0.05 {
		t.Fatalf("heavy-tailed service: mean N = %g, want ρ = %g", m, rho)
	}
}

func TestSimulateValidation(t *testing.T) {
	e, _ := dist.NewExponential(1)
	q, _ := New(1, e)
	rng := rng.New(1)
	if _, err := q.Simulate(0, 1, rng); err == nil {
		t.Fatal("zero horizon should be rejected")
	}
	if _, err := q.Simulate(10, 20, rng); err == nil {
		t.Fatal("sampleEvery > horizon should be rejected")
	}
	if _, err := q.Simulate(10, 1, nil); err == nil {
		t.Fatal("nil rng should be rejected")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	e, _ := dist.NewExponential(1)
	q, _ := New(5, e)
	a, err := q.Simulate(100, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Simulate(100, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
}
