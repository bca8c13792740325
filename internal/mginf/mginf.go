// Package mginf models the number of active flows N(t) on an uncongested
// link as the occupancy of an M/G/∞ queue: flows arrive Poisson(λ), stay
// for their duration D, and never queue (the link is over-provisioned).
//
// This is the special case of the paper's model with rectangular shots of
// height 1 (§IV) and the flow-count model of Ben Fredj et al. [3], which the
// paper cites as "a very particular case of our model where all flows would
// have exactly the same rate". It serves as the constant-rate baseline
// whose variance under-estimation the ablation experiment quantifies, and
// its simulated occupancy is an independent check on the model's moments.
package mginf

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/dist/rng"
)

// Queue is an M/G/∞ queue with arrival rate Lambda and service (flow
// duration) distribution ServiceTime.
type Queue struct {
	Lambda      float64
	ServiceTime dist.Sampler
}

// New validates parameters and returns a queue.
func New(lambda float64, service dist.Sampler) (*Queue, error) {
	if !(lambda > 0) {
		return nil, fmt.Errorf("mginf: lambda must be > 0, got %g", lambda)
	}
	if service == nil {
		return nil, fmt.Errorf("mginf: nil service distribution")
	}
	if m := service.Mean(); !(m > 0) || math.IsInf(m, 0) {
		return nil, fmt.Errorf("mginf: service mean must be positive and finite, got %g", m)
	}
	return &Queue{Lambda: lambda, ServiceTime: service}, nil
}

// Load returns ρ = λ·E[D], the mean number of flows in progress.
func (q *Queue) Load() float64 { return q.Lambda * q.ServiceTime.Mean() }

// ConstantRateVariance returns the variance of the total rate under the [3]
// baseline where every flow transmits at the same constant rate r:
// R(t) = r·N(t), so Var(R) = r²·ρ. With r chosen to match the mean
// (r = E[S]/E[D] is a common choice), this under-estimates the true
// variance whenever flow rates are heterogeneous — the ablation the paper's
// Theorem 3 discussion motivates.
func (q *Queue) ConstantRateVariance(r float64) float64 {
	return r * r * q.Load()
}

// Simulate runs the queue for the given horizon after a warm-up of several
// mean service times, sampling N(t) every sampleEvery seconds, and returns
// the samples. The simulation is event-driven over arrival epochs with a
// min-heap of departures collapsed into sorted slices per sample step (the
// sample path is only needed at the sampling grid, so exact event ordering
// between samples is unnecessary).
func (q *Queue) Simulate(horizon, sampleEvery float64, r *rng.Rand) ([]float64, error) {
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
