package dist

import (
	"math"
	"testing"

	"repro/internal/dist/rng"
)

// sampleMean draws n values with a fixed seed and averages them.
func sampleMean(t *testing.T, s Sampler, seed int64, n int) float64 {
	t.Helper()
	rng := rng.New(seed)
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Sample(rng)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sample %d is %g", i, v)
		}
		sum += v
	}
	return sum / float64(n)
}

// checkMoments verifies the Monte Carlo mean against the analytic Mean.
func checkMoments(t *testing.T, name string, s Sampler, tol float64) {
	t.Helper()
	m := s.Mean()
	got := sampleMean(t, s, 42, 200_000)
	if math.Abs(got-m)/m > tol {
		t.Fatalf("%s: sample mean %g vs analytic %g", name, got, m)
	}
}

func TestConstant(t *testing.T) {
	c := Constant{V: 3.5}
	if c.Mean() != 3.5 || c.Sample(nil) != 3.5 {
		t.Fatal("constant must return V everywhere")
	}
}

func TestUniform(t *testing.T) {
	if _, err := NewUniform(2, 2); err == nil {
		t.Fatal("lo == hi should be rejected")
	}
	u, err := NewUniform(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if u.Mean() != 20 {
		t.Fatalf("mean = %g, want 20", u.Mean())
	}
	checkMoments(t, "uniform", u, 0.01)
	rng := rng.New(1)
	for i := 0; i < 1000; i++ {
		if v := u.Sample(rng); v < 10 || v >= 30 {
			t.Fatalf("sample %g outside [10, 30)", v)
		}
	}
}

func TestExponential(t *testing.T) {
	if _, err := NewExponential(0); err == nil {
		t.Fatal("rate 0 should be rejected")
	}
	e, err := NewExponential(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 2 {
		t.Fatalf("mean = %g, want 2", e.Mean())
	}
	checkMoments(t, "exponential", e, 0.01)
}

func TestBoundedPareto(t *testing.T) {
	if _, err := NewBoundedPareto(1.3, 100, 100); err == nil {
		t.Fatal("lo == hi should be rejected")
	}
	if _, err := NewBoundedPareto(1.3, 0, 100); err == nil {
		t.Fatal("lo 0 should be rejected")
	}
	b, err := NewBoundedPareto(1.3, 1500, 3e5)
	if err != nil {
		t.Fatal(err)
	}
	checkMoments(t, "bounded pareto", b, 0.02)
	rng := rng.New(3)
	for i := 0; i < 10000; i++ {
		if v := b.Sample(rng); v < 1500 || v > 3e5 {
			t.Fatalf("sample %g outside [1500, 3e5]", v)
		}
	}
	// α = 1 uses the logarithmic branch of the mean.
	b1, err := NewBoundedPareto(1, 1, math.E)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 * 1.0 / (1 - 1/math.E) // L·ln(H/L)/(1-L/H) with ln(e)=1
	if math.Abs(b1.Mean()-want) > 1e-12 {
		t.Fatalf("alpha=1 mean = %g, want %g", b1.Mean(), want)
	}
}

func TestLognormalFromMoments(t *testing.T) {
	if _, err := LognormalFromMoments(0, 1); err == nil {
		t.Fatal("mean 0 should be rejected")
	}
	if _, err := LognormalFromMoments(1, -1); err == nil {
		t.Fatal("negative CoV should be rejected")
	}
	l, err := LognormalFromMoments(80e3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Mean()-80e3)/80e3 > 1e-12 {
		t.Fatalf("analytic mean %g, want 80e3", l.Mean())
	}
	checkMoments(t, "lognormal", l, 0.03)
	// CoV 0 degenerates to (almost) the constant.
	l0, err := LognormalFromMoments(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := l0.Sample(rng.New(1)); math.Abs(v-5) > 1e-9 {
		t.Fatalf("CoV 0 sample = %g, want 5", v)
	}
}

// infiniteMean is a heavy-tailed stand-in whose mean is +Inf.
type infiniteMean struct{}

func (infiniteMean) Sample(*rng.Rand) float64 { return 1 }
func (infiniteMean) Mean() float64            { return math.Inf(1) }

func TestMixture(t *testing.T) {
	if _, err := NewMixture([]float64{1}, nil); err == nil {
		t.Fatal("mismatched lengths should be rejected")
	}
	if _, err := NewMixture([]float64{0, 0}, []Sampler{Constant{V: 1}, Constant{V: 2}}); err == nil {
		t.Fatal("all-zero weights should be rejected")
	}
	if _, err := NewMixture([]float64{1, -1}, []Sampler{Constant{V: 1}, Constant{V: 2}}); err == nil {
		t.Fatal("negative weight should be rejected")
	}
	m, err := NewMixture([]float64{3, 1}, []Sampler{Constant{V: 10}, Constant{V: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.75*10 + 0.25*50; math.Abs(m.Mean()-want) > 1e-12 {
		t.Fatalf("mean = %g, want %g", m.Mean(), want)
	}
	checkMoments(t, "mixture", m, 0.01)
	// A zero-weight component with an infinite mean is disabled, not
	// averaged in: the mixture mean must stay finite (0·Inf would be NaN).
	off, err := NewMixture([]float64{1, 0}, []Sampler{Constant{V: 4}, infiniteMean{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := off.Mean(); got != 4 {
		t.Fatalf("mean with disabled heavy tail = %g, want 4", got)
	}
}

func TestPoissonProcess(t *testing.T) {
	if _, err := NewPoissonProcess(0, rng.New(1)); err == nil {
		t.Fatal("rate 0 should be rejected")
	}
	if _, err := NewPoissonProcess(1, nil); err == nil {
		t.Fatal("nil rng should be rejected")
	}
	pp, err := NewPoissonProcess(50, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	prev, n := 0.0, 0
	for {
		a := pp.Next()
		if a <= prev {
			t.Fatalf("arrival %g not after %g", a, prev)
		}
		prev = a
		if a >= 100 {
			break
		}
		n++
	}
	// ~5000 arrivals in 100 s at rate 50; Poisson sd ≈ 71.
	if n < 4700 || n > 5300 {
		t.Fatalf("saw %d arrivals in 100 s at rate 50", n)
	}
}

// Determinism: the same seed must reproduce the same sample path for every
// sampler — the whole experiment pipeline depends on it.
func TestDeterminism(t *testing.T) {
	u, _ := NewUniform(0, 1)
	e, _ := NewExponential(2)
	b, _ := NewBoundedPareto(1.3, 1500, 3e5)
	l, _ := LognormalFromMoments(100, 1)
	m, _ := NewMixture([]float64{1, 2}, []Sampler{u, b})
	for _, s := range []Sampler{Constant{V: 1}, u, e, b, l, m} {
		r1 := rng.New(77)
		r2 := rng.New(77)
		for i := 0; i < 100; i++ {
			if a, b := s.Sample(r1), s.Sample(r2); a != b {
				t.Fatalf("%T: draw %d differs: %g vs %g", s, i, a, b)
			}
		}
	}
	p1, _ := NewPoissonProcess(3, rng.New(5))
	p2, _ := NewPoissonProcess(3, rng.New(5))
	for i := 0; i < 100; i++ {
		if a, b := p1.Next(), p2.Next(); a != b {
			t.Fatalf("poisson arrival %d differs: %g vs %g", i, a, b)
		}
	}
}
