package stats

import "fmt"

// EWMA is the exponentially weighted moving average estimator the paper
// proposes in §V-G for online tracking of the model parameters (λ, E[S],
// E[S²/D]): on each new observation x the estimate θ is updated as
//
//	θ ← (1-α) θ + α x
//
// The smaller α, the slower the reaction to a change (the paper's analogy is
// TCP's smoothed round-trip time estimator).
type EWMA struct {
	alpha float64
	value float64
	n     int64
}

// NewEWMA returns an estimator with gain alpha in (0, 1].
func NewEWMA(alpha float64) (*EWMA, error) {
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("stats: EWMA gain must be in (0,1], got %g", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Add incorporates one observation. The first observation initialises the
// estimate directly so the estimator does not start biased toward zero.
func (e *EWMA) Add(x float64) {
	if e.n == 0 {
		e.value = x
	} else {
		e.value = (1-e.alpha)*e.value + e.alpha*x
	}
	e.n++
}

// Value returns the current estimate (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }
