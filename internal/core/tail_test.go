package core

import (
	"math"
	"testing"
)

func TestLogMGFBasics(t *testing.T) {
	m, err := NewModel(20, Triangular, testFlows(200, 21))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := m.LogMGF(0)
	if err != nil || zero != 0 {
		t.Fatalf("ψ(0) = %g, %v; want 0", zero, err)
	}
	if _, err := m.LogMGF(-1); err == nil {
		t.Fatal("negative theta should be rejected")
	}
	// ψ'(0) = mean, ψ''(0) = variance (finite differences).
	h := 1e-3 / m.Mean()
	p1, err := m.LogMGF(h)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.LogMGF(2 * h)
	if err != nil {
		t.Fatal(err)
	}
	deriv := p1 / h
	if !almostRel(deriv, m.Mean(), 2e-2) {
		t.Fatalf("ψ'(0) ≈ %g, want mean %g", deriv, m.Mean())
	}
	second := (p2 - 2*p1) / (h * h)
	if !almostRel(second, m.Variance(), 0.1) {
		t.Fatalf("ψ''(0) ≈ %g, want variance %g", second, m.Variance())
	}
	// Convex and increasing in θ.
	prev := 0.0
	prevGap := 0.0
	for i := 1; i <= 5; i++ {
		v, err := m.LogMGF(float64(i) * h)
		if err != nil {
			t.Fatal(err)
		}
		gap := v - prev
		if gap <= 0 || gap < prevGap {
			t.Fatalf("ψ not convex increasing at step %d", i)
		}
		prev, prevGap = v, gap
	}
}

// The Chernoff tests run the integer-b kernel and, at b = 1.5, the same
// closed form at a real exponent.
var chernoffShots = []PowerShot{Triangular, {B: 1.5}}

func TestChernoffBoundProperties(t *testing.T) {
	for _, shot := range chernoffShots {
		m, err := NewModel(100, shot, testFlows(500, 22))
		if err != nil {
			t.Fatal(err)
		}
		mu, sigma := m.Mean(), m.StdDev()
		// Vacuous at and below the mean.
		if p, err := m.ChernoffExceedProb(mu); err != nil || p != 1 {
			t.Fatalf("%s: at the mean: p = %g, %v; want 1", shot.Name(), p, err)
		}
		// Decreasing in the capacity, within (0, 1].
		prev := 1.0
		for _, k := range []float64{0.5, 1, 2, 3, 4} {
			p, err := m.ChernoffExceedProb(mu + k*sigma)
			if err != nil {
				t.Fatal(err)
			}
			if p <= 0 || p > prev+1e-12 {
				t.Fatalf("%s: Chernoff bound not decreasing at μ+%gσ: %g after %g", shot.Name(), k, p, prev)
			}
			prev = p
		}
		// Near the mean the bound approaches the Gaussian exponent
		// exp(-k²/2) within the skew correction; at k=1 they should be within
		// a factor of a few.
		p1, err := m.ChernoffExceedProb(mu + sigma)
		if err != nil {
			t.Fatal(err)
		}
		gauss := math.Exp(-0.5)
		if p1 < gauss/5 || p1 > gauss*5 {
			t.Fatalf("%s: Chernoff at μ+σ = %g, Gaussian exponent scale %g", shot.Name(), p1, gauss)
		}
	}
}

func TestChernoffHeavierThanGaussianTail(t *testing.T) {
	// Positive skew means the true upper tail is heavier than Gaussian;
	// the Chernoff bound must therefore sit above the Gaussian estimate
	// far out in the tail for a low-multiplexing (skewed) model.
	m, err := NewModel(5, Parabolic, testFlows(300, 23))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Mean() + 5*m.StdDev()
	chernoff, err := m.ChernoffExceedProb(c)
	if err != nil {
		t.Fatal(err)
	}
	gauss := m.ExceedProb(c)
	if !(chernoff > gauss) {
		t.Fatalf("skewed tail: Chernoff %g should exceed Gaussian %g", chernoff, gauss)
	}
}

func TestBandwidthChernoff(t *testing.T) {
	for _, shot := range chernoffShots {
		m, err := NewModel(50, shot, testFlows(400, 24))
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.05, 0.01, 1e-3} {
			c, err := m.BandwidthChernoff(eps)
			if err != nil {
				t.Fatal(err)
			}
			if c <= m.Mean() {
				t.Fatalf("%s: C(%g) = %g not above the mean", shot.Name(), eps, c)
			}
			p, err := m.ChernoffExceedProb(c)
			if err != nil {
				t.Fatal(err)
			}
			if !almostRel(p, eps, 1e-3) {
				t.Fatalf("%s: round trip: ChernoffExceedProb(C(%g)) = %g", shot.Name(), eps, p)
			}
		}
		// The Chernoff capacity exceeds the Gaussian one in the deep tail
		// (it accounts for the positive skew).
		cg, _ := m.Bandwidth(1e-3)
		cc, _ := m.BandwidthChernoff(1e-3)
		if !(cc > cg) {
			t.Fatalf("%s: deep tail: Chernoff capacity %g should exceed Gaussian %g", shot.Name(), cc, cg)
		}
		if _, err := m.BandwidthChernoff(0); err == nil {
			t.Fatalf("%s: ε=0 should be rejected", shot.Name())
		}
	}
}
