package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func vecAlmostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestSolveDenseKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, []float64{1, 3}, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Zero on the diagonal requires pivoting.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, []float64{3, 2}, 1e-12) {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveDense(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDenseDimensionErrors(t *testing.T) {
	if _, err := SolveDense([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("row/rhs mismatch should error")
	}
	if _, err := SolveDense([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged matrix should error")
	}
}

func TestSolveDenseDoesNotMutateInputs(t *testing.T) {
	a := [][]float64{{4, 1}, {1, 3}}
	b := []float64{1, 2}
	if _, err := SolveDense(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 4 || a[1][0] != 1 || b[0] != 1 {
		t.Fatal("inputs mutated")
	}
}

func TestSolveToeplitzIdentity(t *testing.T) {
	r := []float64{1, 0, 0, 0}
	b := []float64{4, -1, 2, 7}
	x, err := SolveToeplitz(r, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, b, 1e-12) {
		t.Fatalf("identity solve: x = %v, want %v", x, b)
	}
}

func TestSolveToeplitzKnown(t *testing.T) {
	// T = [[2,1],[1,2]], b = [4,5] => x = [1,2].
	x, err := SolveToeplitz([]float64{2, 1}, []float64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, []float64{1, 2}, 1e-12) {
		t.Fatalf("x = %v, want [1 2]", x)
	}
}

func TestSolveToeplitzMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		// Build a positive-definite Toeplitz first column resembling an
		// autocorrelation sequence: r[0]=1, decaying magnitudes.
		r := make([]float64, n)
		r[0] = 1
		decay := 0.3 + 0.5*rng.Float64()
		for k := 1; k < n; k++ {
			r[k] = math.Pow(decay, float64(k)) * (0.8 + 0.2*rng.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := SolveDense(ToeplitzMatrix(r), b)
		if err != nil {
			t.Fatalf("dense solve failed on trial %d: %v", trial, err)
		}
		got, err := SolveToeplitz(r, b)
		if err != nil {
			t.Fatalf("levinson failed on trial %d: %v", trial, err)
		}
		if !vecAlmostEqual(got, want, 1e-8) {
			t.Fatalf("trial %d n=%d: levinson %v vs dense %v", trial, n, got, want)
		}
	}
}

// Property: the Levinson solution actually satisfies T x = b.
func TestSolveToeplitzResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		r := make([]float64, n)
		r[0] = 1
		for k := 1; k < n; k++ {
			r[k] = math.Pow(0.6, float64(k))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveToeplitz(r, b)
		if err != nil {
			return false
		}
		tx, err := MatVec(ToeplitzMatrix(r), x)
		if err != nil {
			return false
		}
		return vecAlmostEqual(tx, b, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveToeplitzErrors(t *testing.T) {
	if _, err := SolveToeplitz([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if _, err := SolveToeplitz([]float64{0, 0}, []float64{1, 1}); err != ErrSingular {
		t.Fatalf("zero diagonal: err = %v, want ErrSingular", err)
	}
	// Perfectly correlated sequence (r all ones) is singular for n >= 2.
	if _, err := SolveToeplitz([]float64{1, 1, 1}, []float64{1, 1, 1}); err != ErrSingular {
		t.Fatalf("rank-1 toeplitz: err = %v, want ErrSingular", err)
	}
	x, err := SolveToeplitz(nil, nil)
	if err != nil || x != nil {
		t.Fatalf("empty system should be a no-op, got %v, %v", x, err)
	}
}

func TestToeplitzMatrix(t *testing.T) {
	m := ToeplitzMatrix([]float64{1, 0.5, 0.25})
	want := [][]float64{
		{1, 0.5, 0.25},
		{0.5, 1, 0.5},
		{0.25, 0.5, 1},
	}
	for i := range want {
		if !vecAlmostEqual(m[i], want[i], 0) {
			t.Fatalf("row %d = %v, want %v", i, m[i], want[i])
		}
	}
}

func TestMatVec(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	y, err := MatVec(a, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(y, []float64{3, 7}, 0) {
		t.Fatalf("y = %v", y)
	}
	if _, err := MatVec([][]float64{{1, 2, 3}}, []float64{1}); err == nil {
		t.Fatal("mismatched matvec should error")
	}
}

// SolveDense, ToeplitzMatrix and MatVec are the dense reference the
// Levinson solver is checked against.

// SolveDense solves the general linear system A x = b by Gaussian
// elimination with partial pivoting. A is row-major and is not modified.
func SolveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	if len(a) != n {
		return nil, fmt.Errorf("linalg: dense dimension mismatch: %d rows, %d rhs", len(a), n)
	}
	// Working copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("linalg: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-13 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]

		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			factor := m[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= factor * m[col][c]
			}
			x[r] -= factor * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// ToeplitzMatrix expands the first-column r into the full symmetric Toeplitz
// matrix T[i][j] = r[|i-j|].
func ToeplitzMatrix(r []float64) [][]float64 {
	n := len(r)
	t := make([][]float64, n)
	for i := range t {
		t[i] = make([]float64, n)
		for j := range t[i] {
			d := i - j
			if d < 0 {
				d = -d
			}
			t[i][j] = r[d]
		}
	}
	return t
}

// MatVec returns A x for a row-major dense matrix.
func MatVec(a [][]float64, x []float64) ([]float64, error) {
	out := make([]float64, len(a))
	for i, row := range a {
		if len(row) != len(x) {
			return nil, fmt.Errorf("linalg: matvec row %d has %d columns, want %d", i, len(row), len(x))
		}
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}
