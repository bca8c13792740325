// Package dist provides the random samplers the synthetic trace generator
// and the M/G/∞ machinery draw from: flow sizes, per-flow rates, shot
// exponents and Poisson arrival processes. Every sampler is driven by an
// externally supplied *rng.Rand so the whole pipeline is deterministic
// under a fixed seed, and exposes its analytic mean so calibration code
// (e.g. deriving λ from a target utilisation) needs no Monte Carlo.
//
// Samplers have two faces: Sample draws one value, SampleN fills a slice in
// one call. The batched face is what the generator's phase-1 hot path uses —
// it amortises the interface dispatch of a Sampler field over a whole block
// of draws, which is where the per-flow cost of a trace goes once the
// underlying rng core is a few nanoseconds per draw.
package dist

import (
	"fmt"
	"math"

	"repro/internal/dist/rng"
)

// Sampler draws iid values from one distribution. Implementations must be
// stateless with respect to Sample so one Sampler can safely be shared by
// concurrent generators, each with its own rng.
type Sampler interface {
	// Sample draws one value using the given source of randomness.
	Sample(r *rng.Rand) float64
	// Mean returns the analytic expectation (may be +Inf for heavy tails).
	Mean() float64
}

// SamplerN is the batched face: SampleN fills dst with len(dst) iid draws,
// consuming the stream exactly as len(dst) successive Sample calls would —
// the batched and scalar paths are draw-for-draw equivalent, so switching a
// call site between them never moves an output.
type SamplerN interface {
	Sampler
	SampleN(dst []float64, r *rng.Rand)
}

// SampleN fills dst from s, using its batched path when implemented and
// falling back to per-value draws otherwise. Every sampler in this package
// implements SamplerN; the fallback exists for third-party Samplers.
//
//repro:hotpath
func SampleN(s Sampler, dst []float64, r *rng.Rand) {
	if sn, ok := s.(SamplerN); ok {
		sn.SampleN(dst, r)
		return
	}
	for i := range dst {
		dst[i] = s.Sample(r)
	}
}

// Constant is the degenerate distribution at V.
type Constant struct {
	V float64
}

// Sample returns V.
func (c Constant) Sample(*rng.Rand) float64 { return c.V }

// SampleN fills dst with V.
//
//repro:hotpath
func (c Constant) SampleN(dst []float64, _ *rng.Rand) {
	for i := range dst {
		dst[i] = c.V
	}
}

// Mean returns V.
func (c Constant) Mean() float64 { return c.V }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// NewUniform validates the bounds.
func NewUniform(lo, hi float64) (Uniform, error) {
	if !(lo < hi) {
		return Uniform{}, fmt.Errorf("dist: uniform needs lo < hi, got [%g, %g)", lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// Sample draws uniformly from [Lo, Hi).
func (u Uniform) Sample(r *rng.Rand) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// SampleN fills dst with uniform draws.
//
//repro:hotpath
func (u Uniform) SampleN(dst []float64, r *rng.Rand) {
	for i := range dst {
		dst[i] = u.Lo + (u.Hi-u.Lo)*r.Float64()
	}
}

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exponential is the exponential distribution with the given rate (mean
// 1/rate).
type Exponential struct {
	Rate float64
}

// NewExponential validates the rate.
func NewExponential(rate float64) (Exponential, error) {
	if !(rate > 0) {
		return Exponential{}, fmt.Errorf("dist: exponential rate must be > 0, got %g", rate)
	}
	return Exponential{Rate: rate}, nil
}

// Sample draws Exp(Rate) via the ziggurat.
func (e Exponential) Sample(r *rng.Rand) float64 { return r.Exp() / e.Rate }

// SampleN fills dst with Exp(Rate) draws.
//
//repro:hotpath
func (e Exponential) SampleN(dst []float64, r *rng.Rand) {
	for i := range dst {
		dst[i] = r.Exp() / e.Rate
	}
}

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// invPow computes x^(-e) for x in (0, 1] via the exp∘log identity: the
// bounded Pareto inverse-CDF hot path never needs math.Pow's generality
// (negative bases, huge exponents), and exp∘log is about twice as fast.
func invPow(x, e float64) float64 {
	return math.Exp(-e * math.Log(x))
}

// BoundedPareto is the Pareto distribution truncated to [L, H]: the flow
// size law of the suite (heavy-tailed elephants with a physical cap).
type BoundedPareto struct {
	Alpha, L, H float64
	// tailMass caches 1-(L/H)^Alpha and invAlpha caches 1/Alpha: Sample
	// sits on the per-flow hot path of the trace generator, and the cache
	// halves its math.Pow cost. Zero means "not built via NewBoundedPareto"
	// (the true tail mass is never 0 for L < H) and is computed on the fly.
	tailMass float64
	invAlpha float64
}

// NewBoundedPareto validates shape and support.
func NewBoundedPareto(alpha, lo, hi float64) (BoundedPareto, error) {
	if !(alpha > 0) {
		return BoundedPareto{}, fmt.Errorf("dist: bounded pareto shape must be > 0, got %g", alpha)
	}
	if !(lo > 0) || !(lo < hi) {
		return BoundedPareto{}, fmt.Errorf("dist: bounded pareto needs 0 < lo < hi, got [%g, %g]", lo, hi)
	}
	return BoundedPareto{
		Alpha: alpha, L: lo, H: hi,
		tailMass: 1 - math.Pow(lo/hi, alpha),
		invAlpha: 1 / alpha,
	}, nil
}

// params returns the cached inversion constants, deriving them when the
// value was built without NewBoundedPareto.
func (b BoundedPareto) params() (tm, inv float64) {
	tm, inv = b.tailMass, b.invAlpha
	if tm == 0 {
		tm = 1 - math.Pow(b.L/b.H, b.Alpha)
		inv = 1 / b.Alpha
	}
	return tm, inv
}

// Sample draws by inverting the truncated CDF.
func (b BoundedPareto) Sample(r *rng.Rand) float64 {
	tm, inv := b.params()
	return b.L * invPow(1-r.Float64()*tm, inv)
}

// SampleN fills dst by inverting the truncated CDF per draw.
//
//repro:hotpath
func (b BoundedPareto) SampleN(dst []float64, r *rng.Rand) {
	tm, inv := b.params()
	for i := range dst {
		dst[i] = b.L * invPow(1-r.Float64()*tm, inv)
	}
}

// Mean returns the analytic expectation of the truncated law.
func (b BoundedPareto) Mean() float64 {
	ratio := math.Pow(b.L/b.H, b.Alpha)
	if b.Alpha == 1 {
		return b.L * math.Log(b.H/b.L) / (1 - ratio)
	}
	num := b.Alpha * math.Pow(b.L, b.Alpha) *
		(math.Pow(b.L, 1-b.Alpha) - math.Pow(b.H, 1-b.Alpha))
	return num / ((b.Alpha - 1) * (1 - ratio))
}

// Lognormal is the lognormal distribution: exp(N(Mu, Sigma²)).
type Lognormal struct {
	Mu, Sigma float64
}

// LognormalFromMoments builds the lognormal with the given mean and
// coefficient of variation (σ/μ), the natural parameterisation for "access
// rates average 80 kb/s with CoV 1.5"-style specs.
func LognormalFromMoments(mean, cov float64) (Lognormal, error) {
	if !(mean > 0) {
		return Lognormal{}, fmt.Errorf("dist: lognormal mean must be > 0, got %g", mean)
	}
	if cov < 0 {
		return Lognormal{}, fmt.Errorf("dist: lognormal CoV must be >= 0, got %g", cov)
	}
	s2 := math.Log(1 + cov*cov)
	return Lognormal{Mu: math.Log(mean) - s2/2, Sigma: math.Sqrt(s2)}, nil
}

// Sample draws exp(N(Mu, Sigma²)) via the ziggurat normal.
func (l Lognormal) Sample(r *rng.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.Norm())
}

// SampleN fills dst with lognormal draws.
//
//repro:hotpath
func (l Lognormal) SampleN(dst []float64, r *rng.Rand) {
	for i := range dst {
		dst[i] = math.Exp(l.Mu + l.Sigma*r.Norm())
	}
}

// Mean returns exp(Mu + Sigma²/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Mixture draws from one of several component samplers with fixed
// probabilities (the mice/elephants flow-size law). Component selection is
// O(1) via a Walker/Vose alias table, whatever the component count.
type Mixture struct {
	probs      []float64 // normalised weights, for Mean
	components []Sampler
	// Alias table: bucket i keeps itself with probability accept[i], else
	// defers to alias[i]. One uniform draw selects a component.
	accept []float64
	alias  []int32
}

// NewMixture validates that weights and components align; weights need not
// be normalised.
func NewMixture(weights []float64, components []Sampler) (*Mixture, error) {
	if len(weights) == 0 || len(weights) != len(components) {
		return nil, fmt.Errorf("dist: mixture needs matching non-empty weights and components, got %d/%d",
			len(weights), len(components))
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("dist: mixture weight %d is %g", i, w)
		}
		if components[i] == nil {
			return nil, fmt.Errorf("dist: mixture component %d is nil", i)
		}
		total += w
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return nil, fmt.Errorf("dist: mixture weights sum to %g", total)
	}
	n := len(weights)
	m := &Mixture{
		probs:      make([]float64, n),
		components: components,
		accept:     make([]float64, n),
		alias:      make([]int32, n),
	}
	// Vose's alias construction: scale weights to mean 1, then pair each
	// under-full bucket with an over-full donor. Linear time, and exact: the
	// residual float mass left on the stacks at the end belongs to buckets
	// whose scaled weight is within rounding of 1.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		m.probs[i] = w / total
		scaled[i] = m.probs[i] * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		m.accept[s] = scaled[s]
		m.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		m.accept[i] = 1
		m.alias[i] = i
	}
	for _, i := range small {
		m.accept[i] = 1
		m.alias[i] = i
	}
	return m, nil
}

// pick selects a component index with one uniform draw.
func (m *Mixture) pick(r *rng.Rand) int {
	u := r.Float64() * float64(len(m.accept))
	i := int(u)
	if i >= len(m.accept) { // u == n-ε rounding guard
		i = len(m.accept) - 1
	}
	if u-float64(i) < m.accept[i] {
		return i
	}
	return int(m.alias[i])
}

// Sample picks a component by weight in O(1), then samples it.
func (m *Mixture) Sample(r *rng.Rand) float64 {
	return m.components[m.pick(r)].Sample(r)
}

// SampleN fills dst, picking a component per slot. Draw order is
// slot-by-slot (pick, then component draw), identical to len(dst)
// successive Sample calls.
//
//repro:hotpath
func (m *Mixture) SampleN(dst []float64, r *rng.Rand) {
	for i := range dst {
		dst[i] = m.components[m.pick(r)].Sample(r)
	}
}

// Mean returns the weight-averaged component means. Zero-weight components
// are skipped, not multiplied: a disabled heavy-tail component with an
// infinite mean must not turn the mixture mean into 0·Inf = NaN.
func (m *Mixture) Mean() float64 {
	var mean float64
	for i, w := range m.probs {
		if w > 0 {
			mean += w * m.components[i].Mean()
		}
	}
	return mean
}

// PoissonProcess produces the arrival epochs of a homogeneous Poisson
// process of the given rate: successive calls to Next return strictly
// increasing absolute times whose gaps are iid Exp(rate).
type PoissonProcess struct {
	rate float64
	rng  *rng.Rand
	t    float64
}

// NewPoissonProcess validates the rate and binds the process to r.
func NewPoissonProcess(rate float64, r *rng.Rand) (*PoissonProcess, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("dist: poisson rate must be positive and finite, got %g", rate)
	}
	if r == nil {
		return nil, fmt.Errorf("dist: poisson process needs a rng")
	}
	return &PoissonProcess{rate: rate, rng: r}, nil
}

// Next returns the next arrival epoch. The clock is guaranteed to make
// strict, finite-safe progress: a zero gap (the ziggurat can return exactly
// 0) or a gap lost to float absorption at a large t advances the epoch by
// one ulp instead of stalling, and once the clock saturates at +Inf it stays
// there — so a horizon comparison always terminates and t never goes
// backwards or NaN.
func (p *PoissonProcess) Next() float64 {
	t := p.t + p.rng.Exp()/p.rate
	if !(t > p.t) {
		t = math.Nextafter(p.t, math.Inf(1))
	}
	p.t = t
	return t
}
