// Package mginf models the number of active flows N(t) on an uncongested
// link as the occupancy of an M/G/∞ queue: flows arrive Poisson(λ), stay
// for their duration D, and never queue (the link is over-provisioned).
//
// This is the special case of the paper's model with rectangular shots of
// height 1 (§IV) and the flow-count model of Ben Fredj et al. [3], which the
// paper cites as "a very particular case of our model where all flows would
// have exactly the same rate". It serves as the constant-rate baseline
// whose variance under-estimation the ablation experiment quantifies.
package mginf

import (
	"fmt"
	"math"

	"repro/internal/dist"
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
