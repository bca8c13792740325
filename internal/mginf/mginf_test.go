package mginf

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/rng"
	"repro/internal/stats"
)

// infiniteMean is a heavy-tailed service law whose mean is +Inf.
type infiniteMean struct{}

func (infiniteMean) Sample(*rng.Rand) float64 { return 1 }
func (infiniteMean) Mean() float64            { return math.Inf(1) }

func TestNewValidation(t *testing.T) {
	e, _ := dist.NewExponential(1)
	if _, err := New(0, e); err == nil {
		t.Fatal("lambda 0 should be rejected")
	}
	if _, err := New(1, nil); err == nil {
		t.Fatal("nil service should be rejected")
	}
	if _, err := New(1, infiniteMean{}); err == nil {
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
	services = append(services, dist.Constant{V: 2}) // every flow lasts its mean
	bp, _ := dist.NewBoundedPareto(1.5, 0.5, 50)     // heavy-ish, mean ≈ 1.46
	for i, svc := range services {
		q, err := New(10, svc)
		if err != nil {
			t.Fatal(err)
		}
		rho := q.Load()
		rng := rng.New(int64(100 + i))
		samples, err := q.simulate(2000, 0.25, rng)
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
	samples, err := q.simulate(3000, 0.5, rng)
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
	if _, err := q.simulate(0, 1, rng); err == nil {
		t.Fatal("zero horizon should be rejected")
	}
	if _, err := q.simulate(10, 20, rng); err == nil {
		t.Fatal("sampleEvery > horizon should be rejected")
	}
	if _, err := q.simulate(10, 1, nil); err == nil {
		t.Fatal("nil rng should be rejected")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	e, _ := dist.NewExponential(1)
	q, _ := New(5, e)
	a, err := q.simulate(100, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.simulate(100, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
}

// simulate runs the queue for the given horizon after a warm-up of several
// mean service times, sampling N(t) every sampleEvery seconds, and returns
// the samples: the simulated occupancy is the tests' independent check on
// the queue's moments. The simulation is event-driven over arrival epochs with a
// min-heap of departures collapsed into sorted slices per sample step (the
// sample path is only needed at the sampling grid, so exact event ordering
// between samples is unnecessary).
func (q *Queue) simulate(horizon, sampleEvery float64, r *rng.Rand) ([]float64, error) {
	if !(horizon > 0) || !(sampleEvery > 0) || sampleEvery > horizon {
		return nil, fmt.Errorf("mginf: need 0 < sampleEvery <= horizon")
	}
	if r == nil {
		return nil, fmt.Errorf("mginf: nil rng")
	}
	warm := 10 * q.ServiceTime.Mean()
	pp, err := dist.NewPoissonProcess(q.Lambda, r)
	if err != nil {
		return nil, fmt.Errorf("mginf: %w", err)
	}
	total := warm + horizon
	n := int(horizon / sampleEvery)
	samples := make([]float64, n)
	// Bucket departures on the sampling grid: a flow arriving at a and
	// leaving at d contributes +1 to every sample time in [a, d).
	for {
		a := pp.Next()
		if a >= total {
			break
		}
		d := a + q.ServiceTime.Sample(r)
		lo := int(math.Ceil((a - warm) / sampleEvery))
		hi := int(math.Ceil((d - warm) / sampleEvery)) // first grid point >= d
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		for k := lo; k < hi; k++ {
			samples[k]++
		}
	}
	return samples, nil
}

func BenchmarkMGInfSimulation(b *testing.B) {
	e, err := dist.NewExponential(1)
	if err != nil {
		b.Fatal(err)
	}
	q, err := New(200, e)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.simulate(100, 0.5, rng.New(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
