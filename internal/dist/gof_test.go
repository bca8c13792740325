package dist

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dist/rng"
)

// Goodness-of-fit suite for the sampler rewrite: every law is tested by a
// one-sample Kolmogorov-Smirnov statistic against its analytic CDF, plus
// mean/variance tolerances, and the batched face is checked draw-for-draw
// equivalent to the scalar face. A wrong ziggurat table, a biased alias
// bucket or a lost tail fails these hard; a fixed seed keeps them from ever
// flaking.

// ksStat returns the one-sample KS D of draws against cdf (draws sorted in
// place).
func ksStat(draws []float64, cdf func(float64) float64) float64 {
	sort.Float64s(draws)
	n := float64(len(draws))
	var d float64
	for i, x := range draws {
		f := cdf(x)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// ksCheck draws n samples and fails when D exceeds the ~1e-3 significance
// critical value 1.95/√n.
func ksCheck(t *testing.T, name string, s Sampler, seed int64, n int, cdf func(float64) float64) {
	t.Helper()
	r := rng.New(seed)
	draws := make([]float64, n)
	SampleN(s, draws, r)
	d := ksStat(draws, cdf)
	if crit := 1.95 / math.Sqrt(float64(n)); d > crit {
		t.Fatalf("%s: KS statistic %g exceeds %g", name, d, crit)
	}
}

func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

func TestSamplerKS(t *testing.T) {
	const n = 200_000
	u, _ := NewUniform(-2, 5)
	ksCheck(t, "uniform", u, 1, n, func(x float64) float64 { return (x + 2) / 7 })

	e, _ := NewExponential(0.25)
	ksCheck(t, "exponential", e, 2, n, func(x float64) float64 { return 1 - math.Exp(-0.25*x) })

	b, _ := NewBoundedPareto(1.3, 1500, 3e5)
	tailMass := 1 - math.Pow(1500.0/3e5, 1.3)
	ksCheck(t, "bounded pareto", b, 4, n, func(x float64) float64 {
		return (1 - math.Pow(1500/x, 1.3)) / tailMass
	})

	l, _ := LognormalFromMoments(80e3, 1.5)
	ksCheck(t, "lognormal", l, 5, n, func(x float64) float64 {
		return normCDF((math.Log(x) - l.Mu) / l.Sigma)
	})

	// Mixture of two disjoint uniforms: the CDF has a plateau, so a biased
	// alias table shows up as mass on the wrong side of it.
	u1, _ := NewUniform(0, 1)
	u2, _ := NewUniform(10, 11)
	m, _ := NewMixture([]float64{3, 1}, []Sampler{u1, u2})
	ksCheck(t, "mixture", m, 6, n, func(x float64) float64 {
		switch {
		case x < 0:
			return 0
		case x < 1:
			return 0.75 * x
		case x < 10:
			return 0.75
		case x < 11:
			return 0.75 + 0.25*(x-10)
		default:
			return 1
		}
	})
}

// Variance tolerances complement KS (which is weak in the tails).
func TestSamplerVariance(t *testing.T) {
	const n = 500_000
	check := func(name string, s Sampler, seed int64, wantMean, wantVar, tol float64) {
		t.Helper()
		r := rng.New(seed)
		draws := make([]float64, n)
		SampleN(s, draws, r)
		var sum, sum2 float64
		for _, v := range draws {
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if math.Abs(mean-wantMean) > tol*wantMean {
			t.Fatalf("%s: mean %g, want %g", name, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 3*tol*wantVar {
			t.Fatalf("%s: variance %g, want %g", name, variance, wantVar)
		}
	}
	e, _ := NewExponential(2)
	check("exponential", e, 11, 0.5, 0.25, 0.01)
	u, _ := NewUniform(2, 8)
	check("uniform", u, 12, 5, 3, 0.01)
	l, _ := LognormalFromMoments(100, 0.8)
	check("lognormal", l, 13, 100, (0.8*100)*(0.8*100), 0.03)
}

// The batched face must consume the stream exactly as successive scalar
// calls do: a call site can switch between them without moving any output.
func TestBatchedScalarEquivalence(t *testing.T) {
	u, _ := NewUniform(0, 1)
	e, _ := NewExponential(2)
	b, _ := NewBoundedPareto(1.3, 1500, 3e5)
	l, _ := LognormalFromMoments(100, 1)
	m, _ := NewMixture([]float64{1, 2, 0.5}, []Sampler{u, b, l})
	for _, s := range []Sampler{Constant{V: 7}, u, e, b, l, m} {
		for _, batch := range []int{1, 3, 64, 257} {
			r1 := rng.NewStream(99, 4)
			r2 := rng.NewStream(99, 4)
			dst := make([]float64, batch)
			SampleN(s, dst, r1)
			for i, got := range dst {
				if want := s.Sample(r2); got != want {
					t.Fatalf("%T batch %d: draw %d is %g, scalar path gives %g", s, batch, i, got, want)
				}
			}
			// Both paths must leave the stream at the same position.
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("%T batch %d: stream positions diverge after draws", s, batch)
			}
		}
	}
}

// The generic SampleN fallback (a Sampler that does not implement SamplerN)
// must behave like the loop it replaces.
type plainSampler struct{ u Uniform }

func (p plainSampler) Sample(r *rng.Rand) float64 { return p.u.Sample(r) }
func (p plainSampler) Mean() float64              { return p.u.Mean() }

func TestSampleNFallback(t *testing.T) {
	u, _ := NewUniform(3, 4)
	s := plainSampler{u}
	r1, r2 := rng.New(8), rng.New(8)
	dst := make([]float64, 100)
	SampleN(s, dst, r1)
	for i, got := range dst {
		if want := u.Sample(r2); got != want {
			t.Fatalf("fallback draw %d: %g != %g", i, got, want)
		}
	}
}

// Alias-table edge cases: extreme skew, single component, zero-weight
// components, and weights that stress the small/large pairing.
func TestMixtureAliasEdgeCases(t *testing.T) {
	// Single component: every draw comes from it.
	one, err := NewMixture([]float64{5}, []Sampler{Constant{V: 9}})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if v := one.Sample(r); v != 9 {
			t.Fatalf("single-component mixture drew %g", v)
		}
	}

	// Zero-weight components must never be selected, wherever they sit.
	z, err := NewMixture([]float64{0, 1, 0, 2, 0},
		[]Sampler{Constant{V: -1}, Constant{V: 10}, Constant{V: -2}, Constant{V: 20}, Constant{V: -3}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	dst := make([]float64, 30_000)
	z.SampleN(dst, rng.New(2))
	for _, v := range dst {
		counts[v]++
	}
	if counts[-1]+counts[-2]+counts[-3] != 0 {
		t.Fatalf("zero-weight component drawn: %v", counts)
	}
	frac := float64(counts[10]) / float64(len(dst))
	if math.Abs(frac-1.0/3) > 0.02 {
		t.Fatalf("weight-1 component frequency %g, want ~1/3", frac)
	}

	// Extreme skew: the rare component must still appear at about its rate.
	skew, err := NewMixture([]float64{1e6, 1}, []Sampler{Constant{V: 0}, Constant{V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rare := 0
	n := 4_000_000
	rr := rng.New(3)
	for i := 0; i < n; i++ {
		if skew.Sample(rr) == 1 {
			rare++
		}
	}
	want := float64(n) / (1e6 + 1)
	if rare == 0 || math.Abs(float64(rare)-want) > 6*math.Sqrt(want) {
		t.Fatalf("rare component drawn %d times, want ≈%g", rare, want)
	}

	// Non-finite weights are rejected.
	if _, err := NewMixture([]float64{1, math.Inf(1)}, []Sampler{Constant{V: 1}, Constant{V: 2}}); err == nil {
		t.Fatal("infinite weight should be rejected")
	}
}

// The monotonicity guard: a Poisson clock never stalls, reverses, or turns
// NaN — even where float absorption eats the gap.
func TestPoissonProcessMonotone(t *testing.T) {
	pp, err := NewPoissonProcess(1e9, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// Push the clock somewhere large enough that tiny gaps are absorbed.
	pp.t = 1e18
	prev := pp.t
	for i := 0; i < 10_000; i++ {
		next := pp.Next()
		if !(next > prev) {
			t.Fatalf("arrival %d: clock stalled or reversed: %g after %g", i, next, prev)
		}
		if math.IsNaN(next) {
			t.Fatalf("arrival %d is NaN", i)
		}
		prev = next
	}

	// Saturated clock stays pinned at +Inf instead of going NaN, so horizon
	// comparisons terminate.
	pp2, _ := NewPoissonProcess(1, rng.New(5))
	pp2.t = math.Inf(1)
	for i := 0; i < 10; i++ {
		if v := pp2.Next(); !math.IsInf(v, 1) {
			t.Fatalf("saturated clock produced %g", v)
		}
	}
}

// Poisson inter-arrival statistics: mean gap ≈ 1/rate.
func TestPoissonProcessGaps(t *testing.T) {
	gaps := 0.0
	prev := 0.0
	d, _ := NewPoissonProcess(7, rng.New(8))
	const n = 100_000
	for i := 0; i < n; i++ {
		t := d.Next()
		gaps += t - prev
		prev = t
	}
	if mean := gaps / n; math.Abs(mean-1.0/7) > 0.01/7 {
		t.Fatalf("mean inter-arrival %g, want %g", mean, 1.0/7)
	}
}
