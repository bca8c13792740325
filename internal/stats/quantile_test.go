package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The type-7 estimator behind QQExponential's sample quantiles.
func TestQuantileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := quantileSorted(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("quantileSorted(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantileSorted([]float64{7}, 0.3); got != 7 {
		t.Fatalf("single-sample quantile = %g, want 7", got)
	}
}

// QQExponential sorts a copy: the caller's series keeps its order.
func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := QQExponential(xs, 10); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		qa, qb = math.Abs(math.Mod(qa, 1)), math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		sort.Float64s(xs)
		va, vb := quantileSorted(xs, qa), quantileSorted(xs, qb)
		return va <= vb+1e-9 && va >= xs[0]-1e-9 && vb <= xs[len(xs)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQQExponentialOnExponentialSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 0.01 // mean 10 ms inter-arrivals
	}
	pts, err := QQExponential(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Central 95% of the plot should hug the diagonal for a true
	// exponential sample.
	dev := QQMaxDeviation(pts, Mean(xs), 0.95)
	if dev > 0.15 {
		t.Fatalf("exponential sample deviates from diagonal: max dev %g means", dev)
	}
}

func TestQQExponentialOnUniformSampleDeviates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64() // uniform is clearly not exponential
	}
	pts, err := QQExponential(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	dev := QQMaxDeviation(pts, Mean(xs), 0.95)
	if dev < 0.3 {
		t.Fatalf("uniform sample should deviate strongly, got max dev %g", dev)
	}
}

func TestQQExponentialSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	pts, err := QQExponential(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Theoretical < pts[j].Theoretical }) {
		t.Fatal("theoretical quantiles not increasing")
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Sample <= pts[j].Sample }) {
		t.Fatal("sample quantiles not non-decreasing")
	}
}

func TestQQExponentialEmpty(t *testing.T) {
	if _, err := QQExponential(nil, 10); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ q, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1}, // Φ(1)
		{0.9772498680518208, 2}, // Φ(2)
		{0.99, 2.3263478740408408},
		{0.95, 1.6448536269514722},
		{0.01, -2.3263478740408408},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.q); !almostEqual(got, c.want, 1e-9) {
			t.Fatalf("NormalQuantile(%g) = %.12f, want %.12f", c.q, got, c.want)
		}
	}
}

// Property: NormalCDF(NormalQuantile(q)) == q.
func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		q := math.Abs(math.Mod(raw, 1))
		if q < 0.001 || q > 0.999 {
			return true
		}
		return almostEqual(NormalCDF(NormalQuantile(q)), q, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The 70%-of-time-within-one-sigma claim used in the paper's §V-E.
func TestGaussianOneSigmaCoverage(t *testing.T) {
	cover := NormalCDF(1) - NormalCDF(-1)
	if !almostEqual(cover, 0.6827, 1e-3) {
		t.Fatalf("P(|Z|<1) = %g, want ≈ 0.683 (the paper rounds to 70%%)", cover)
	}
}
