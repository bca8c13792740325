package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewEWMAValidation(t *testing.T) {
	for _, bad := range []float64{0, -0.1, 1.1, math.NaN()} {
		if _, err := NewEWMA(bad); err == nil {
			t.Fatalf("NewEWMA(%g) should fail", bad)
		}
	}
	if _, err := NewEWMA(1); err != nil {
		t.Fatalf("NewEWMA(1) should be accepted: %v", err)
	}
}

func TestEWMAFirstObservationInitialises(t *testing.T) {
	e, _ := NewEWMA(0.1)
	e.Add(42)
	if e.Value() != 42 {
		t.Fatalf("first value = %g, want 42 (no zero bias)", e.Value())
	}
}

func TestEWMAUpdateRule(t *testing.T) {
	e, _ := NewEWMA(0.25)
	e.Add(8)
	e.Add(4)
	// (1-0.25)*8 + 0.25*4 = 7
	if e.Value() != 7 {
		t.Fatalf("value = %g, want 7", e.Value())
	}
}

func TestEWMAConvergesToStationaryMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e, _ := NewEWMA(0.02)
	const mean = 12.5
	for i := 0; i < 20000; i++ {
		e.Add(mean + rng.NormFloat64())
	}
	if math.Abs(e.Value()-mean) > 0.3 {
		t.Fatalf("EWMA = %g, want ≈ %g", e.Value(), mean)
	}
}

func TestEWMATracksLevelShift(t *testing.T) {
	e, _ := NewEWMA(0.1)
	for i := 0; i < 200; i++ {
		e.Add(10)
	}
	for i := 0; i < 200; i++ {
		e.Add(50) // regime change, e.g. new customer on the link (§VII-A)
	}
	if math.Abs(e.Value()-50) > 0.1 {
		t.Fatalf("EWMA did not track shift: %g", e.Value())
	}
}

func TestEWMASmallerAlphaReactsSlower(t *testing.T) {
	fast, _ := NewEWMA(0.5)
	slow, _ := NewEWMA(0.01)
	fast.Add(0)
	slow.Add(0)
	for i := 0; i < 10; i++ {
		fast.Add(100)
		slow.Add(100)
	}
	if fast.Value() <= slow.Value() {
		t.Fatalf("fast (%g) should exceed slow (%g) after a step change",
			fast.Value(), slow.Value())
	}
}
