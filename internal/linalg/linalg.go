// Package linalg provides the linear-algebra kernel the traffic predictor
// needs: a symmetric-Toeplitz solver (Levinson-Durbin recursion) for the
// Wiener-Hopf normal equations of the paper's §VII-B (eq. 8).
// linalg_test.go cross-checks it against a general Gaussian-elimination
// solver.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no stable solution.
var ErrSingular = errors.New("linalg: singular or near-singular system")

// SolveToeplitz solves the symmetric Toeplitz system T a = b where
// T[i][j] = r[|i-j|], using the Levinson recursion in O(n²) time.
// r must have length n (first column of T) and b length n.
//
// For the predictor, r is the autocorrelation sequence ρ(0..M-1) and
// b is ρ(1..M), so that a holds the optimal MA prediction coefficients.
func SolveToeplitz(r, b []float64) ([]float64, error) {
	n := len(b)
	if len(r) != n {
		return nil, fmt.Errorf("linalg: toeplitz dimension mismatch: len(r)=%d len(b)=%d", len(r), n)
	}
	if n == 0 {
		return nil, nil
	}
	if r[0] == 0 || math.IsNaN(r[0]) {
		return nil, ErrSingular
	}

	// Levinson recursion with forward vectors (symmetric case: the backward
	// vector is the reverse of the forward vector).
	x := make([]float64, n) // current solution of T_k x = b[:k]
	f := make([]float64, n) // forward vector: T_k f = e_1
	x[0] = b[0] / r[0]
	f[0] = 1 / r[0]

	fPrev := make([]float64, n)
	for k := 1; k < n; k++ {
		// Forward error: ef = sum_{i} r[k-i] f[i] over the previous order.
		var ef float64
		for i := 0; i < k; i++ {
			ef += r[k-i] * f[i]
		}
		denom := 1 - ef*ef
		if math.Abs(denom) < 1e-14 {
			return nil, ErrSingular
		}
		copy(fPrev[:k], f[:k])
		// New forward vector of order k+1.
		for i := 0; i <= k; i++ {
			var prev, prevRev float64
			if i < k {
				prev = fPrev[i]
			}
			if i > 0 {
				prevRev = fPrev[k-i]
			}
			f[i] = (prev - ef*prevRev) / denom
		}
		// Update the solution: ex = sum_i r[k-i] x[i].
		var ex float64
		for i := 0; i < k; i++ {
			ex += r[k-i] * x[i]
		}
		scale := b[k] - ex
		for i := 0; i <= k; i++ {
			// backward vector element i = f[k-i] (symmetry).
			x[i] += scale * f[k-i]
		}
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}
