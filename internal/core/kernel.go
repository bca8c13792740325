package core

import (
	"fmt"
	"math"
)

// Coefficient-cached kernels for the integer-b power-shot model math. The
// scalar closed forms (avgVarCrossInt, kept in kernel_test.go as the
// oracle) re-derive the same Pascal-row/monomial structure on every call —
// nested powi/binomial loops per flow, per Δ or θ, per shot shape. For a
// fixed (b, Δ) or (b, θ) all of that collapses to a handful of constants:
//
//   - eq.(7): ∫₀^{min(Δ,d)} (1-τ/Δ)·CrossCov(s,d,τ) dτ with x(t) = a·t^b and
//     a = s(b+1)/d^{b+1} is, after expanding (d-τ)^q binomially,
//       d < Δ (m = d):  s²·(lt0 − lt1·d)         — linear in d, two constants
//       d ≥ Δ (m = Δ):  s²·u·P(u),  u = 1/d      — a degree-(2b+1) polynomial
//     because every d-power in the m = d branch cancels against a², while in
//     the m = Δ branch the surviving powers of d collect into one polynomial
//     in 1/d with Δ-dependent coefficients.
//   - the log-MGF of Theorem 1 (θ = -s): substituting u = θ·a·t^b reduces
//     the per-flow integral to one special-function call with argument
//     x = θ(b+1)·s/d and a θ-only prefactor.
//
// The kernels precompute those constants once and evaluate per flow with a
// branchy Horner pass over FlowPop columns — no powi, binomial or math.Pow
// in the inner loop. kernel_test.go pins the kernel-vs-scalar divergence.

// AvgVarKernel caches the eq.(7) per-flow integral coefficients for one
// (integer shot exponent b, averaging interval Δ) pair. A kernel is
// immutable after construction and safe to share across goroutines; a
// Meter builds the b ∈ {0,1,2} kernels once and reuses them for every
// interval it evaluates.
type AvgVarKernel struct {
	b     int
	delta float64
	// d < Δ branch: integral = s²·(lt0 − lt1·d).
	lt0, lt1 float64
	// d ≥ Δ branch: integral = s²·u·(ge[0] + ge[1]·u + … + ge[2b+1]·u^{2b+1})
	// with u = 1/d, evaluated by Horner.
	ge []float64
}

// NewAvgVarKernel builds the coefficient cache. The exponent must be in the
// well-conditioned closed-form range 0 ≤ b ≤ 10 (see closedFormB); larger or
// non-integer exponents take Model.AveragedVariance's per-flow integral.
func NewAvgVarKernel(b int, delta float64) (*AvgVarKernel, error) {
	if b < 0 || !(PowerShot{B: float64(b)}).closedFormB() {
		return nil, fmt.Errorf("core: eq.(7) kernel needs an integer shot exponent in [0, 10], got %d", b)
	}
	if !(delta > 0) {
		return nil, fmt.Errorf("core: averaging interval must be > 0, got %g", delta)
	}
	k := &AvgVarKernel{b: b, delta: delta, ge: make([]float64, 2*b+2)}
	bp1sq := float64(b+1) * float64(b+1)
	var c1, c2 float64
	for j := 0; j <= b; j++ {
		pj := b - j    // τ exponent of the CrossCov term
		q := b + j + 1 // (d-τ) exponent
		cbj := binomial(b, j) / float64(q)
		sign := 1.0
		for kk := 0; kk <= q; kk++ {
			c := sign * cbj * binomial(q, kk)
			sign = -sign
			e1 := pj + kk + 1 // exponent of m in the antiderivative
			// m = d: both monomials carry d^{2b+2}, which cancels against a²,
			// leaving a constant and a d/Δ term.
			c1 += c / float64(e1)
			c2 += c / float64(e1+1)
			// m = Δ: the (j, kk) term contributes
			// c·Δ^{e1}·(1/e1 − 1/(e1+1))·d^{q−kk}; against a²'s d^{-(2b+2)}
			// that is the u-power 2b+2−(q−kk) ∈ [1, 2b+2].
			g := c * powi(delta, e1) * (1/float64(e1) - 1/float64(e1+1))
			k.ge[2*b+1-(q-kk)] += g
		}
	}
	k.lt0 = bp1sq * c1
	k.lt1 = bp1sq * c2 / delta
	for i := range k.ge {
		k.ge[i] *= bp1sq
	}
	return k, nil
}

// crossInt is the cached-coefficient equivalent of the scalar avgVarCrossInt
// oracle (kernel_test.go) for one flow, taking the precomputed s² and 1/d
// columns.
//
//repro:hotpath
func (k *AvgVarKernel) crossInt(s2, d, invd float64) float64 {
	if d < k.delta {
		return s2 * (k.lt0 - k.lt1*d)
	}
	ge := k.ge
	acc := ge[len(ge)-1]
	for i := len(ge) - 2; i >= 0; i-- {
		acc = acc*invd + ge[i]
	}
	return s2 * invd * acc
}

// AveragedVariance returns σ_Δ² = (2λ/Δ)·E[∫(1-τ/Δ)γ_flow] over the
// population — eq.(7) in one branch-partitioned pass, no powi or binomial
// per flow.
func (k *AvgVarKernel) AveragedVariance(lambda float64, pop *FlowPop) (float64, error) {
	n := pop.Len()
	if n == 0 {
		return 0, fmt.Errorf("core: averaged variance needs a non-empty flow population")
	}
	s2c, dc, uc := pop.S2, pop.D, pop.InvD
	var sum float64
	for i := 0; i < n; i++ {
		sum += k.crossInt(s2c[i], dc[i], uc[i])
	}
	return 2 / k.delta * lambda * sum / float64(n), nil
}

// mgfKernel caches the θ-dependent constants of the Theorem 1 transform's
// log-MGF integrand ∫₀^D (e^{θx(t)}-1)dt for one (shot exponent b ≥ 0, θ)
// pair: the special-function argument is x = θ(b+1)·s/d for every b, and
// the prefactor (1/b)·(θ(b+1))^{-1/b} is flow-independent, so
// gammaLowerExpM1 is the only per-flow transcendental (plus one math.Pow
// for b ∉ {0, 1, 2}, where the root (d/s)^{1/b} has no cheap form).
type mgfKernel struct {
	b   float64
	tb1 float64 // θ·(b+1)
	inv float64 // 1/b (b > 0)
	c   float64 // (1/b)·(θ(b+1))^{-1/b} (b > 0)
}

func newMGFKernel(b, theta float64) mgfKernel {
	k := mgfKernel{b: b, tb1: theta * (b + 1)}
	if b > 0 {
		k.inv = 1 / b
		k.c = k.inv * math.Pow(k.tb1, -k.inv) //repro:transcendental-ok one-time kernel construction per (b, θ), hoisted off the per-flow path by design
	}
	return k
}

// root returns d·(d/s)^{1/b} = (d^{b+1}/s)^{1/b}, the flow-dependent factor
// of the hoisted prefactor, with cheap forms for the paper's exact
// exponents b = 1, 2.
//
//repro:hotpath
func (k mgfKernel) root(s, d float64) float64 {
	switch k.b {
	case 1:
		return d * d / s
	case 2:
		return d * math.Sqrt(d/s)
	default:
		//repro:transcendental-ok documented fallback for b ∉ {1, 2} — (d/s)^{1/b} has no cheap root; the paper's suite uses b ∈ {0,1,2}
		return d * math.Pow(d/s, k.inv)
	}
}

// expM1 returns one flow's log-MGF integral ∫₀^D (e^{θx(t)}-1)dt, +Inf when
// the integral overflows (the Chernoff search treats that as "past the
// turn").
//
//repro:hotpath
func (k mgfKernel) expM1(s, d, invd float64) float64 {
	if !(d > 0) || !(s > 0) || !(k.tb1 > 0) {
		return 0
	}
	if k.b == 0 {
		return d * math.Expm1(k.tb1*s*invd)
	}
	return k.c * k.root(s, d) * gammaLowerExpM1(k.inv, k.tb1*s*invd)
}
