package timeseries

import (
	"context"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/netpkt"
	"repro/internal/stats"
	"repro/internal/trace"
)

func rec(t float64, bytes uint16) trace.Record {
	return trace.Record{Time: t, Hdr: netpkt.Header{TotalLen: bytes}}
}

// bin bins recs over [0, duration) with one Add per packet: the scalar
// reference the block path is checked against.
func bin(recs []trace.Record, duration, delta float64) (Series, error) {
	b, err := NewBinner(duration, delta)
	if err != nil {
		return Series{}, err
	}
	for _, r := range recs {
		b.Add(r.Time, float64(r.Hdr.TotalLen)*8)
	}
	return b.Series(), nil
}

func TestBinValidation(t *testing.T) {
	if _, err := bin(nil, 10, 0); err == nil {
		t.Fatal("zero delta should be rejected")
	}
	if _, err := bin(nil, 0, 1); err == nil {
		t.Fatal("zero duration should be rejected")
	}
	if _, err := bin(nil, 0.1, 1); err == nil {
		t.Fatal("duration < delta should be rejected")
	}
}

func TestBinPlacesPackets(t *testing.T) {
	recs := []trace.Record{
		rec(0.05, 1000), // bin 0
		rec(0.25, 500),  // bin 1
		rec(0.999, 250), // bin 4
		rec(1.5, 100),   // outside [0,1)
		rec(-0.5, 100),  // negative, ignored
	}
	s, err := bin(recs, 1.0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rate) != 5 {
		t.Fatalf("bins = %d, want 5", len(s.Rate))
	}
	// bin 0: 1000 bytes / 0.2 s = 40000 bit/s.
	if s.Rate[0] != 40000 {
		t.Fatalf("bin 0 = %g, want 40000", s.Rate[0])
	}
	if s.Rate[1] != 20000 {
		t.Fatalf("bin 1 = %g, want 20000", s.Rate[1])
	}
	if s.Rate[4] != 10000 {
		t.Fatalf("bin 4 = %g, want 10000", s.Rate[4])
	}
	if s.Rate[2] != 0 || s.Rate[3] != 0 {
		t.Fatalf("empty bins non-zero: %v", s.Rate)
	}
}

func TestBinMeanEqualsThroughput(t *testing.T) {
	// The time-average of the binned series equals total bits / duration
	// when all packets fall inside the window.
	recs := []trace.Record{rec(0.1, 1500), rec(3.7, 1500), rec(8.2, 700)}
	s, err := bin(recs, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := (1500 + 1500 + 700) * 8.0 / 10.0
	if math.Abs(s.Mean()-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", s.Mean(), want)
	}
}

func TestSubtractDiscarded(t *testing.T) {
	recs := []trace.Record{rec(0.1, 1000), rec(0.15, 500)}
	s, err := bin(recs, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	s.Subtract([]flow.DiscardedPacket{{Time: 0.15, Bits: 4000}})
	if s.Rate[0] != (8000+4000-4000)/0.2 {
		t.Fatalf("bin 0 after subtract = %g", s.Rate[0])
	}
	// Out-of-range discards are ignored; rates never go negative.
	s.Subtract([]flow.DiscardedPacket{{Time: 5, Bits: 1e9}, {Time: -1, Bits: 1e9}})
	s.Subtract([]flow.DiscardedPacket{{Time: 0.1, Bits: 1e12}})
	if s.Rate[0] != 0 {
		t.Fatalf("rate should clamp at 0, got %g", s.Rate[0])
	}
}

func TestSubtractEdgeCases(t *testing.T) {
	// Four bins of 0.25 s over [0, 1), each carrying 1000 bits/bin-width.
	mk := func() Series {
		return Series{Delta: 0.25, Rate: []float64{4000, 4000, 4000, 4000}}
	}

	// A discard exactly on a bin boundary belongs to the bin it opens
	// (t ∈ [kΔ, (k+1)Δ)), not the one it closes.
	s := mk()
	s.Subtract([]flow.DiscardedPacket{{Time: 0.5, Bits: 250}})
	if s.Rate[1] != 4000 {
		t.Fatalf("bin 1 touched by boundary discard: %g", s.Rate[1])
	}
	if s.Rate[2] != 4000-250/0.25 {
		t.Fatalf("bin 2 after boundary discard = %g, want %g", s.Rate[2], 4000-250/0.25)
	}

	// t = 0 is a boundary too: it must land in bin 0, not be dropped.
	s = mk()
	s.Subtract([]flow.DiscardedPacket{{Time: 0, Bits: 250}})
	if s.Rate[0] != 3000 {
		t.Fatalf("bin 0 after t=0 discard = %g, want 3000", s.Rate[0])
	}

	// A discard at the series end (t = n·Δ) is past the last bin: ignored.
	s = mk()
	s.Subtract([]flow.DiscardedPacket{{Time: 1.0, Bits: 1e9}, {Time: 7.3, Bits: 1e9}})
	for k, v := range s.Rate {
		if v != 4000 {
			t.Fatalf("bin %d changed by past-the-end discard: %g", k, v)
		}
	}

	// Over-subtraction clamps at zero instead of going negative (the
	// measured rate is a volume; a negative rate would poison the variance).
	s = mk()
	s.Subtract([]flow.DiscardedPacket{{Time: 0.3, Bits: 1001}})
	if s.Rate[1] != 0 {
		t.Fatalf("bin 1 should clamp at 0, got %g", s.Rate[1])
	}
	if s.Rate[0] != 4000 || s.Rate[2] != 4000 {
		t.Fatal("clamp leaked into neighbouring bins")
	}
}

func TestDownsample(t *testing.T) {
	s := Series{Delta: 0.2, Rate: []float64{1, 3, 5, 7, 9, 11, 13}}
	d, err := s.Downsample(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Delta != 0.4 {
		t.Fatalf("delta = %g, want 0.4", d.Delta)
	}
	want := []float64{2, 6, 10} // trailing 13 dropped
	if len(d.Rate) != 3 {
		t.Fatalf("rate = %v", d.Rate)
	}
	for i, w := range want {
		if d.Rate[i] != w {
			t.Fatalf("rate[%d] = %g, want %g", i, d.Rate[i], w)
		}
	}
	if _, err := s.Downsample(0); err == nil {
		t.Fatal("factor 0 should be rejected")
	}
	same, err := s.Downsample(1)
	if err != nil || len(same.Rate) != len(s.Rate) {
		t.Fatal("factor 1 should copy")
	}
	same.Rate[0] = 99
	if s.Rate[0] == 99 {
		t.Fatal("downsample(1) must not alias the original")
	}
}

func TestDownsampleConservesMean(t *testing.T) {
	// A weakly dependent stationary series: block averaging must keep the
	// mean and reduce the variance (§V-F). A deterministic trend would not
	// qualify, so use seeded noise.
	s := Series{Delta: 0.1, Rate: make([]float64, 1000)}
	x := 1.0
	for i := range s.Rate {
		x = math.Mod(x*997+13, 101) // fixed pseudo-random sequence
		s.Rate[i] = x
	}
	d, err := s.Downsample(10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-s.Mean()) > 1e-9 {
		t.Fatalf("downsampling changed the mean: %g vs %g", d.Mean(), s.Mean())
	}
	if d.Variance() >= s.Variance() {
		t.Fatalf("averaging must reduce variance: %g vs %g (§V-F)", d.Variance(), s.Variance())
	}
}

// Averaging over longer Δ smooths the measured rate (paper §V-F): variance
// decreases with Δ on a synthetic trace.
func TestVarianceDecreasesWithDelta(t *testing.T) {
	size, _ := dist.NewBoundedPareto(1.3, 3000, 300000)
	rate, _ := dist.LognormalFromMoments(250e3, 1)
	cfg := trace.Config{
		Duration:  60,
		Lambda:    120,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: 1},
		Seed:      5,
	}
	b, err := NewBinner(60, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, func(blk *trace.Block) error {
		b.AddBlock(blk)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s50 := b.Series()
	s800, err := s50.Downsample(16)
	if err != nil {
		t.Fatal(err)
	}
	if !(s800.Variance() < s50.Variance()) {
		t.Fatalf("variance did not decrease with averaging: Δ=50ms %g vs Δ=800ms %g",
			s50.Variance(), s800.Variance())
	}
	// Means agree regardless of Δ.
	if math.Abs(s800.Mean()-s50.Mean())/s50.Mean() > 0.01 {
		t.Fatalf("means differ across Δ: %g vs %g", s800.Mean(), s50.Mean())
	}
}

func TestAutoCorrelationDelegates(t *testing.T) {
	s := Series{Delta: 1, Rate: []float64{1, 2, 1, 2, 1, 2}}
	r := s.AutoCorrelation(2)
	want := stats.AutoCorrelation(s.Rate, 2)
	for i := range r {
		if r[i] != want[i] {
			t.Fatalf("acf mismatch at %d", i)
		}
	}
}
