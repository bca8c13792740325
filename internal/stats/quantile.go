package stats

import (
	"math"
	"sort"
)

// quantileSorted computes the type-7 quantile on already-sorted data.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// QQPoint is one point of a quantile-quantile plot.
type QQPoint struct {
	Sample      float64 // quantile of the measured data (x-axis in the paper)
	Theoretical float64 // corresponding quantile of the reference distribution
}

// QQExponential returns k points of the quantile-quantile plot of xs against
// an exponential distribution with the same mean, as in the paper's Figures
// 3 and 4 (flow inter-arrival times vs the exponential fit). The i-th point
// uses probability p_i = (i+0.5)/k. A perfectly exponential sample lies on
// the diagonal.
func QQExponential(xs []float64, k int) ([]QQPoint, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if k <= 0 {
		k = 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mean := Mean(s)
	pts := make([]QQPoint, k)
	for i := 0; i < k; i++ {
		p := (float64(i) + 0.5) / float64(k)
		pts[i] = QQPoint{
			Sample:      quantileSorted(s, p),
			Theoretical: -mean * math.Log(1-p), // exponential quantile function
		}
	}
	return pts, nil
}

// QQMaxDeviation returns the maximum relative deviation |sample-theoretical|
// normalised by the sample mean over the central portion of a qq-plot
// (probabilities below pmax). It is a scalar summary used by the test suite
// and the experiment harness to assert "close to exponential" without eyes.
func QQMaxDeviation(pts []QQPoint, mean, pmax float64) float64 {
	if mean == 0 || len(pts) == 0 {
		return 0
	}
	n := int(pmax * float64(len(pts)))
	if n > len(pts) {
		n = len(pts)
	}
	var worst float64
	for _, p := range pts[:n] {
		d := math.Abs(p.Sample-p.Theoretical) / mean
		if d > worst {
			worst = d
		}
	}
	return worst
}

// NormalQuantile returns z_q, the q-quantile of the standard normal
// distribution: P(Z ≤ z_q) = q. It is the function β(·) of the paper's §V-E
// used for Gaussian link dimensioning, e.g. NormalQuantile(0.99) ≈ 2.33 so a
// link provisioned at E[R] + 2.33 σ is congested less than 1% of the time.
func NormalQuantile(q float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*q-1)
}

// NormalCDF returns P(Z ≤ z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
