package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values below Lo go
// to the first bin and values at or above Hi to the last, so no observation
// is dropped (the paper's Figure 11 histogram of fitted b has a long tail
// that must be kept visible).
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	total  int64
}

// NewHistogram returns a histogram with n equal-width bins on [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bin, got %d", n)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram range [%g, %g) is empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, n)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Fraction returns the fraction of observations in bin i (0 if empty).
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// String renders the histogram as an ASCII bar chart, one bin per line, for
// the experiment harness output.
func (h *Histogram) String() string {
	var b strings.Builder
	var max int64 = 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	const width = 50
	for i, c := range h.Counts {
		bar := int(float64(c) / float64(max) * width)
		fmt.Fprintf(&b, "%8.3f | %-*s %d (%.1f%%)\n",
			h.BinCenter(i), width, strings.Repeat("#", bar), c, 100*h.Fraction(i))
	}
	return b.String()
}
