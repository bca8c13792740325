package core

import (
	"math"
	"testing"
)

// nestedAveragedVariance evaluates eq. (7) as written: an n-point outer
// Simpson rule over τ ∈ [0, Δ] around the model's auto-covariance, which
// for a real b is itself a graded Gauss–Legendre integral per flow. It is
// the oracle of the integer-b kernels and of the per-flow Campbell integral.
func nestedAveragedVariance(m *Model, delta float64, n int) float64 {
	f := func(tau float64) float64 {
		return (1 - tau/delta) * m.AutoCovariance(tau)
	}
	return 2 / delta * simpson(f, 0, delta, n)
}

// The closed-form eq.(7) integral used for integer-b power shots must agree
// with the nested quadrature.
func TestAveragedVarianceClosedFormMatchesQuadrature(t *testing.T) {
	flows := testFlows(400, 9)
	for _, b := range []float64{0, 1, 2, 3} {
		shot := PowerShot{B: b}
		m, err := NewModel(25, shot, flows)
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []float64{0.05, 0.2, 1, 10} {
			got, err := m.AveragedVariance(delta)
			if err != nil {
				t.Fatal(err)
			}
			want := nestedAveragedVariance(m, delta, 2048)
			if math.Abs(got-want) > 1e-6*math.Abs(want) {
				t.Fatalf("b=%g Δ=%g: closed form %g vs quadrature %g", b, delta, got, want)
			}
		}
	}
}

// The per-flow Campbell integral behind real-b σ_Δ² must agree with the
// nested eq. (7) quadrature, also for flows far longer than Δ, and with the
// integer-b kernels where both apply: there its integrand is a polynomial
// of degree 2b+2 on each piece, which the 8-point rule integrates exactly
// for b ≤ 6.
func TestAveragedVarianceIntegralMatchesOracles(t *testing.T) {
	flows := testFlows(60, 12)
	for _, delta := range []float64{0.05, 0.2, 1} {
		// At D ≈ 1e3·Δ, x̄² grows like t^{2b} across [0, D−Δ] from its
		// singularity at 0, which a single rule over that piece misses.
		long := popOf(1e6, 800*delta, 2e6, 1000*delta, 5e5, 1500*delta)
		cases := []struct {
			name string
			shot PowerShot
			pop  *FlowPop
		}{
			{"b=0.3", PowerShot{B: 0.3}, flows},
			{"b=0.5", PowerShot{B: 0.5}, flows},
			{"b=1.5", PowerShot{B: 1.5}, flows},
			{"b=2.7", PowerShot{B: 2.7}, flows},
			{"b=0.3 long", PowerShot{B: 0.3}, long},
		}
		for _, c := range cases {
			m, err := NewModel(25, c.shot, c.pop)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.AveragedVariance(delta)
			if err != nil {
				t.Fatal(err)
			}
			want := nestedAveragedVariance(m, delta, 64)
			if rel := relDiff(got, want); rel > 1e-4 {
				t.Errorf("%s Δ=%g: integral %g vs nested quadrature %g (rel %g)", c.name, delta, got, want, rel)
			}
		}
		for _, b := range []int{1, 2, 6, 10} {
			k, err := NewAvgVarKernel(b, delta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := k.AveragedVariance(25, flows)
			if err != nil {
				t.Fatal(err)
			}
			got := averagedVariance(25, PowerShot{B: float64(b)}, flows, delta)
			tol := 1e-9
			if b > 6 {
				tol = 1e-5
			}
			if rel := relDiff(got, want); rel > tol {
				t.Errorf("b=%d Δ=%g: integral %g vs kernel %g (rel %g)", b, delta, got, want, rel)
			}
		}
	}
}

// gaussLegendre8 must integrate every polynomial of degree up to 15
// exactly, and an empty interval to 0.
func TestGaussLegendre8(t *testing.T) {
	for k := 0; k <= 15; k++ {
		got := gaussLegendre8(func(x float64) float64 { return powi(x, k) }, 0, 2)
		want := powi(2, k+1) / float64(k+1)
		if rel := relDiff(got, want); rel > 1e-14 {
			t.Errorf("∫₀² x^%d = %g, want %g (rel %g)", k, got, want, rel)
		}
	}
	if got := gaussLegendre8(math.Exp, 1, 1); got != 0 {
		t.Fatalf("empty interval = %g, want 0", got)
	}
}

// powi must match math.Pow on the exponent range the shot family uses.
func TestPowi(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for _, x := range []float64{0, 0.3, 1, 2.5, 120} {
			got, want := powi(x, n), math.Pow(x, float64(n))
			if want == 0 {
				if got != 0 && n > 0 {
					t.Fatalf("powi(%g, %d) = %g, want 0", x, n, got)
				}
				continue
			}
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("powi(%g, %d) = %g, want %g", x, n, got, want)
			}
		}
	}
	if powi(7, 0) != 1 {
		t.Fatal("x^0 must be 1")
	}
}
