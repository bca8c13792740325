// Package stats provides the descriptive and inferential statistics used by
// the shot-noise traffic model: sample moments, autocorrelation, empirical
// quantiles, exponential qq-plots, normal quantiles, histograms, and online
// (EWMA and Welford) estimators.
//
// Go's standard library has no statistics package; everything here is built
// on package math only, which keeps the repository dependency-free.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs. It uses Kahan compensated summation so that
// long rate series (millions of 200 ms samples) do not lose precision.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (denominator n-1).
// It returns 0 for samples with fewer than two points.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := ss + y
		comp = (t - ss) - y
		ss = t
	}
	return ss / float64(n-1)
}

// PopVariance returns the population variance of xs (denominator n).
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	return Variance(xs) * float64(n-1) / float64(n)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation of xs: standard deviation divided
// by the mean. This is the headline statistic of the paper's validation
// (Figures 9, 10, 12, 13). It returns 0 if the mean is zero.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Moments accumulates count, mean and variance in a single streaming pass
// using Welford's algorithm. The zero value is ready to use. It backs the
// paper's three-parameter estimation (λ, E[S], E[S²/D]) without keeping the
// sample in memory.
type Moments struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of observations added.
func (m *Moments) N() int64 { return m.n }

// Mean returns the running mean.
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the running unbiased sample variance.
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the running sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }
