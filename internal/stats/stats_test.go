package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %g, want 0", got)
	}
}

func TestSumKahanPrecision(t *testing.T) {
	// 1e8 + many tiny values: naive summation loses the tiny values.
	xs := make([]float64, 1_000_001)
	xs[0] = 1e8
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-8
	}
	got := Sum(xs)
	want := 1e8 + 1e-8*1e6
	if !almostEqual(got, want, 1e-6) {
		t.Fatalf("Sum = %.12f, want %.12f", got, want)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %g, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// population variance is 4, sample variance is 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %g, want %g", got, want)
	}
	if got := PopVariance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("PopVariance = %g, want 4", got)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance of single point = %g, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Fatalf("Variance(nil) = %g, want 0", got)
	}
}

func TestCoVConstantSeries(t *testing.T) {
	if got := CoV([]float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("CoV of constant series = %g, want 0", got)
	}
}

func TestCoVZeroMean(t *testing.T) {
	if got := CoV([]float64{-1, 1}); got != 0 {
		t.Fatalf("CoV with zero mean = %g, want 0 (guarded)", got)
	}
}

// Property: Welford online moments agree with the batch formulas.
func TestMomentsMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 2 {
			return true
		}
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		return almostEqual(m.Mean(), Mean(xs), 1e-6*(1+math.Abs(Mean(xs)))) &&
			almostEqual(m.Variance(), Variance(xs), 1e-6*(1+Variance(xs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sanitize maps arbitrary quick-generated floats into a well-conditioned
// range so tolerance comparisons are meaningful.
func sanitize(raw []float64) []float64 {
	xs := make([]float64, 0, len(raw))
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		xs = append(xs, math.Mod(x, 1e6))
	}
	return xs
}

func TestVarianceInvariantToShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	shifted := make([]float64, len(xs))
	for i, x := range xs {
		shifted[i] = x + 1000
	}
	if got, want := Variance(shifted), Variance(xs); !almostEqual(got, want, 1e-6) {
		t.Fatalf("variance not shift invariant: %g vs %g", got, want)
	}
}

func TestVarianceScalesQuadratically(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = 3 * x
	}
	if got, want := Variance(scaled), 9*Variance(xs); !almostEqual(got, want, 1e-9) {
		t.Fatalf("Var(3X) = %g, want %g", got, want)
	}
}
