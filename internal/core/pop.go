package core

import (
	"fmt"
	"slices"

	"repro/internal/flow"
)

// FlowPop is the model's flow population in columnar (structure-of-arrays)
// form: each flow's size S and duration D, plus the derived columns every
// integer-b kernel consumes — s² feeds the variance and eq.(7) kernels, 1/d
// feeds the Horner evaluation of the eq.(7) polynomial and the log-MGF
// argument x = θ(b+1)·s/d. The derived columns are shot-shape independent,
// so the three paper shapes (b = 0, 1, 2) evaluated per interval share one
// population build. The running sums behind MeanS and MeanS2OverD are
// kept as flows are appended, so the model's first two moments cost no
// population pass; fill a FlowPop only through Append, which keeps the
// columns and the sums consistent.
//
// A FlowPop is append-only between Resets and safe for concurrent reads;
// a Meter pools one so an interval's model inputs cost no population
// allocation in steady state.
type FlowPop struct {
	S    []float64 // flow sizes, bits
	D    []float64 // flow durations, seconds
	S2   []float64 // s², the shared numerator of the second-moment kernels
	InvD []float64 // 1/d, the shared power-family column

	sumS    float64
	sumS2oD float64
}

// Len returns the population size. Nil-safe, so a zero Model reports an
// empty population instead of panicking.
func (p *FlowPop) Len() int {
	if p == nil {
		return 0
	}
	return len(p.S)
}

// Reset truncates the population, keeping the column capacity for reuse.
func (p *FlowPop) Reset() {
	p.S = p.S[:0]
	p.D = p.D[:0]
	p.S2 = p.S2[:0]
	p.InvD = p.InvD[:0]
	p.sumS = 0
	p.sumS2oD = 0
}

// Append adds one flow to every column. Append itself stays branch-free so
// population builds vectorise: InputFromFlowsPop validates s > 0 and d > 0
// as it appends, and NewModel checks hand-built populations.
func (p *FlowPop) Append(s, d float64) {
	p.S = append(p.S, s)
	p.D = append(p.D, d)
	p.S2 = append(p.S2, s*s)
	p.InvD = append(p.InvD, 1/d)
	p.sumS += s
	p.sumS2oD += s * s / d
}

// MeanS returns E[S] in bits over the population.
func (p *FlowPop) MeanS() float64 {
	if p.Len() == 0 {
		return 0
	}
	return p.sumS / float64(len(p.S))
}

// MeanS2OverD returns E[S²/D] in bits²/s over the population.
func (p *FlowPop) MeanS2OverD() float64 {
	if p.Len() == 0 {
		return 0
	}
	return p.sumS2oD / float64(len(p.S))
}

// InputFromFlowsPop derives model inputs from measured flows over an
// interval of the given length (seconds) into a caller-owned population: it
// resets pop, fills its columns and returns an Input carrying it, so a
// worker that pools one FlowPop pays no population allocation per interval.
// Flows with zero duration are skipped (the measurement pipeline has
// already discarded single-packet flows, but a defensive filter keeps the
// estimator total).
func InputFromFlowsPop(pop *FlowPop, flows []flow.Flow, intervalSec float64) (Input, error) {
	if pop == nil {
		return Input{}, fmt.Errorf("core: nil flow population")
	}
	if !(intervalSec > 0) {
		return Input{}, fmt.Errorf("core: interval must be > 0, got %g", intervalSec)
	}
	pop.Reset()
	// len(flows) bounds the population: size every column once.
	pop.S = slices.Grow(pop.S, len(flows))
	pop.D = slices.Grow(pop.D, len(flows))
	pop.S2 = slices.Grow(pop.S2, len(flows))
	pop.InvD = slices.Grow(pop.InvD, len(flows))
	for _, f := range flows {
		d := f.Duration()
		if !(d > 0) {
			continue
		}
		s := f.SizeBits()
		if !(s > 0) {
			return Input{}, fmt.Errorf("core: flow has non-positive size %g", s)
		}
		pop.Append(s, d)
	}
	n := pop.Len()
	if n == 0 {
		return Input{}, fmt.Errorf("core: no usable flows in interval")
	}
	return Input{
		Lambda:      float64(n) / intervalSec,
		MeanS:       pop.MeanS(),
		MeanS2OverD: pop.MeanS2OverD(),
		Pop:         pop,
	}, nil
}
