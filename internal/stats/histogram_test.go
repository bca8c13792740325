package stats

import (
	"strings"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0.5)  // bin 0
	h.Add(9.99) // bin 9
	h.Add(5)    // bin 5
	if h.Counts[0] != 1 || h.Counts[9] != 1 || h.Counts[5] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if got := h.Fraction(5); got != 1.0/3 {
		t.Fatalf("fraction of bin 5 = %g, want 1/3", got)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-5) // below range -> first bin
	h.Add(99) // above range -> last bin
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("out-of-range not clamped: %v", h.Counts)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("expected error for zero bins")
	}
	if _, err := NewHistogram(1, 1, 5); err == nil {
		t.Fatal("expected error for empty range")
	}
	if _, err := NewHistogram(2, 1, 5); err == nil {
		t.Fatal("expected error for inverted range")
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, _ := NewHistogram(0, 10, 10)
	if got := h.BinCenter(0); got != 0.5 {
		t.Fatalf("BinCenter(0) = %g, want 0.5", got)
	}
	if got := h.BinCenter(9); got != 9.5 {
		t.Fatalf("BinCenter(9) = %g, want 9.5", got)
	}
}

func TestHistogramFractionEmpty(t *testing.T) {
	h, _ := NewHistogram(0, 1, 2)
	if got := h.Fraction(0); got != 0 {
		t.Fatalf("Fraction on empty = %g, want 0", got)
	}
}

func TestHistogramString(t *testing.T) {
	h, _ := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.5)
	s := h.String()
	if !strings.Contains(s, "#") {
		t.Fatalf("String() missing bars:\n%s", s)
	}
	if lines := strings.Count(s, "\n"); lines != 2 {
		t.Fatalf("String() has %d lines, want 2:\n%s", lines, s)
	}
}
