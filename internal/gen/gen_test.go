package gen

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netpkt"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// packetRecords collects every packet Packets streams, in order.
func packetRecords(cfg Config, pktBytes int) ([]trace.Record, error) {
	var recs []trace.Record
	err := Packets(cfg, pktBytes, func(blk *trace.Block) error {
		for j, t := range blk.Times {
			recs = append(recs, trace.Record{Time: t, Hdr: netpkt.HeaderFromPacked(blk.Srcs[j], blk.Dsts[j], blk.Sizes[j])})
		}
		return nil
	})
	return recs, err
}

// testPopulation draws a reproducible flow population in bits/seconds.
func testPopulation(n int, seed int64) *core.FlowPop {
	rng := rand.New(rand.NewSource(seed))
	p := &core.FlowPop{}
	for range n {
		s := 5e4 * math.Exp(rng.NormFloat64())
		r := 5e4 * math.Exp(0.4*rng.NormFloat64())
		p.Append(s, s/r)
	}
	return p
}

func testModel(t *testing.T, shot core.PowerShot, lambda float64) *core.Model {
	t.Helper()
	m, err := core.NewModel(lambda, shot, testPopulation(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	pop := testPopulation(10, 2)
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{},
		{Lambda: 1},
		{Lambda: 1, Shot: core.Triangular},
		{Lambda: 1, Shot: core.Triangular, Pop: &core.FlowPop{}},
		{Lambda: 1, Shot: core.Triangular, Pop: pop},
		{Lambda: 1, Shot: core.Triangular, Pop: pop, Duration: 10, Warmup: -1},
		// Non-finite times and rates used to spin the arrival loop or
		// overflow the series allocation; validate must stop them first.
		{Lambda: 1, Shot: core.Triangular, Pop: pop, Duration: 10, Warmup: nan},
		{Lambda: 1, Shot: core.Triangular, Pop: pop, Duration: 10, Warmup: inf},
		{Lambda: 1, Shot: core.Triangular, Pop: pop, Duration: inf},
		{Lambda: inf, Shot: core.Triangular, Pop: pop, Duration: 10},
		{Lambda: nan, Shot: core.Triangular, Pop: pop, Duration: 10},
		// The power shot's exponent must be finite and >= 0.
		{Lambda: 1, Shot: core.PowerShot{B: -0.5}, Pop: pop, Duration: 10},
		{Lambda: 1, Shot: core.PowerShot{B: nan}, Pop: pop, Duration: 10},
		{Lambda: 1, Shot: core.PowerShot{B: inf}, Pop: pop, Duration: 10},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
		if _, err := FluidSeries(cfg, 0.1); err == nil {
			t.Fatalf("config %d: FluidSeries should reject it", i)
		}
		if _, err := packetRecords(cfg, 1500); err == nil {
			t.Fatalf("config %d: Packets should reject it", i)
		}
	}
	good := Config{Lambda: 1, Shot: core.Triangular, Pop: pop, Duration: 10}
	if _, err := FluidSeries(good, 0); err == nil {
		t.Fatal("zero delta should be rejected")
	}
	if _, err := FluidSeries(good, 100); err == nil {
		t.Fatal("delta > duration should be rejected")
	}
	if _, err := packetRecords(good, 10); err == nil {
		t.Fatal("tiny pktBytes should be rejected")
	}
	if _, err := packetRecords(good, 65536); err == nil {
		t.Fatal("pktBytes past the 16-bit IPv4 length should be rejected")
	}
}

// The generated fluid traffic must reproduce the model's first two moments
// — this is the validation loop of §VII-C.
func TestFluidSeriesMatchesModelMoments(t *testing.T) {
	for _, shot := range []core.PowerShot{core.Rectangular, core.Parabolic} {
		m := testModel(t, shot, 120)
		cfg := FromModel(m, 400, 30, 9)
		series, err := FluidSeries(cfg, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := series.Mean(), m.Mean(); math.Abs(got-want)/want > 0.05 {
			t.Fatalf("%s: generated mean %g vs model %g", shot.Name(), got, want)
		}
		// Compare against the Δ-averaged model variance (eq. 7); Δ=100 ms
		// of averaging matters little for seconds-long flows.
		wantVar, err := m.AveragedVariance(0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got := series.Variance(); math.Abs(got-wantVar)/wantVar > 0.25 {
			t.Fatalf("%s: generated variance %g vs model %g", shot.Name(), got, wantVar)
		}
	}
}

// Rectangular generation under-estimates the variance of parabolic traffic:
// the paper's argument for adding the shot to traffic generators.
func TestShotShapeCarriesVariance(t *testing.T) {
	pop := testPopulation(3000, 3)
	base := Config{Lambda: 120, Pop: pop, Duration: 300, Warmup: 30, Seed: 4}
	rectCfg, parCfg := base, base
	rectCfg.Shot = core.Rectangular
	parCfg.Shot = core.Parabolic
	rect, err := FluidSeries(rectCfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := FluidSeries(parCfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Same arrivals and flows (same seed), different pacing.
	if math.Abs(rect.Mean()-par.Mean())/par.Mean() > 0.02 {
		t.Fatalf("means should match: %g vs %g", rect.Mean(), par.Mean())
	}
	if !(rect.Variance() < par.Variance()) {
		t.Fatalf("rectangular variance %g should be below parabolic %g",
			rect.Variance(), par.Variance())
	}
}

func TestFluidSeriesBitConservation(t *testing.T) {
	// Without warm-up and with flows fully inside the window, total bits
	// in the series equal the sum of arrived flow sizes.
	pop := &core.FlowPop{}
	pop.Append(1e5, 0.5)
	cfg := Config{Lambda: 5, Shot: core.Triangular, Pop: pop, Duration: 100, Seed: 5}
	series, err := FluidSeries(cfg, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	total := stats.Sum(series.Rate) * series.Delta
	// Total should be ≈ (number of arrivals)·1e5; arrivals ≈ 5·100 = 500,
	// minus boundary truncation of at most a flow or two.
	n := total / 1e5
	if n < 400 || n > 600 {
		t.Fatalf("conserved flows = %g, want ≈ 500", n)
	}
	// At most one flow straddles the end boundary (D = 0.5 s), so the
	// volume deviates from an integral flow count by less than one flow.
	if frac := n - math.Floor(n); frac != 0 && math.Ceil(n)*1e5-total > 1e5 {
		t.Fatalf("more than one flow's worth of truncation: total %g", total)
	}
}

func TestPacketsMatchFluid(t *testing.T) {
	m := testModel(t, core.Triangular, 80)
	cfg := FromModel(m, 200, 20, 6)
	recs, err := packetRecords(cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no packets generated")
	}
	// Time-ordered, inside the window.
	prev := -1.0
	for i, r := range recs {
		if r.Time < prev {
			t.Fatalf("packet %d out of order", i)
		}
		if r.Time < 0 || r.Time >= cfg.Duration {
			t.Fatalf("packet %d outside window: %g", i, r.Time)
		}
		prev = r.Time
	}
	// The packetised rate matches the fluid rate to within packetisation
	// noise: same arrivals (same seed) so bin series correlate strongly.
	binner, err := timeseries.NewBinner(cfg.Duration, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		binner.Add(r.Time, float64(r.Hdr.TotalLen)*8)
	}
	series := binner.Series()
	fluid, err := FluidSeries(cfg, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(series.Mean()-fluid.Mean())/fluid.Mean() > 0.05 {
		t.Fatalf("packet mean %g vs fluid %g", series.Mean(), fluid.Mean())
	}
	if corr := stats.CrossCorrelation(series.Rate, fluid.Rate); corr < 0.9 {
		t.Fatalf("packet/fluid correlation = %g, want > 0.9", corr)
	}
}

func TestPacketsDeterministic(t *testing.T) {
	m := testModel(t, core.Rectangular, 30)
	cfg := FromModel(m, 50, 0, 7)
	a, err := packetRecords(cfg, 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := packetRecords(cfg, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestWarmupMakesStartStationary(t *testing.T) {
	// Without warm-up the first bins under-shoot the mean; with warm-up
	// they match it.
	m := testModel(t, core.Rectangular, 150)
	cold := FromModel(m, 120, 0, 8)
	warm := FromModel(m, 120, 30, 8)
	coldS, err := FluidSeries(cold, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	warmS, err := FluidSeries(warm, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	head := func(s timeseries.Series) float64 { return stats.Mean(s.Rate[:20]) }
	if !(head(coldS) < head(warmS)) {
		t.Fatalf("cold start head %g should undershoot warm head %g",
			head(coldS), head(warmS))
	}
	if math.Abs(head(warmS)-m.Mean())/m.Mean() > 0.25 {
		t.Fatalf("warm head %g far from model mean %g", head(warmS), m.Mean())
	}
}

// Packets streams through one pooled block: every block but the last is
// full, an fn error stops generation and comes back unchanged, and the
// block returns to the pool either way.
func TestPacketsStreamsBlocks(t *testing.T) {
	m := testModel(t, core.Triangular, 80)
	cfg := FromModel(m, 60, 10, 3)
	base := trace.LiveBlocks()
	var lens []int
	err := Packets(cfg, 500, func(blk *trace.Block) error {
		if live := trace.LiveBlocks(); live != base+1 {
			t.Fatalf("%d blocks live inside fn, want %d", live, base+1)
		}
		lens = append(lens, blk.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lens) < 3 {
		t.Fatalf("only %d blocks streamed", len(lens))
	}
	for i, n := range lens {
		if n == 0 || (i < len(lens)-1 && n != trace.BlockSize) {
			t.Fatalf("block %d of %d holds %d packets", i, len(lens), n)
		}
	}
	stop := errors.New("stop")
	calls := 0
	err = Packets(cfg, 500, func(*trace.Block) error {
		if calls++; calls == 2 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 2 {
		t.Fatalf("fn error: got %v after %d calls, want %v after 2", err, calls, stop)
	}
	if live := trace.LiveBlocks(); live != base {
		t.Fatalf("%d blocks live after Packets, want %d", live, base)
	}
}
