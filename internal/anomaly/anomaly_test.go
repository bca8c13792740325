package anomaly

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/timeseries"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(10, 0, 3, 2); err == nil {
		t.Fatal("sigma 0 should be rejected")
	}
	if _, err := New(10, 1, 0, 2); err == nil {
		t.Fatal("z 0 should be rejected")
	}
	if _, err := New(10, 1, 3, 0); err == nil {
		t.Fatal("minRun 0 should be rejected")
	}
}

func TestBounds(t *testing.T) {
	d, err := New(100, 10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Bounds()
	if lo != 70 || hi != 130 {
		t.Fatalf("bounds = (%g, %g), want (70, 130)", lo, hi)
	}
}

func series(rates ...float64) timeseries.Series {
	return timeseries.Series{Delta: 0.2, Rate: rates}
}

func TestScanQuietSeries(t *testing.T) {
	d, _ := New(100, 10, 3, 2)
	if ev := d.Scan(series(100, 105, 95, 110, 92)); len(ev) != 0 {
		t.Fatalf("quiet series produced events: %+v", ev)
	}
}

func TestScanDetectsFlood(t *testing.T) {
	d, _ := New(100, 10, 3, 3)
	s := series(100, 100, 150, 160, 170, 155, 100, 100)
	ev := d.Scan(s)
	if len(ev) != 1 {
		t.Fatalf("events = %+v, want 1", ev)
	}
	e := ev[0]
	if e.Direction != Above || e.StartBin != 2 || e.EndBin != 5 || e.Peak != 170 {
		t.Fatalf("event = %+v", e)
	}
	if e.Duration(0.2) != 0.8 {
		t.Fatalf("duration = %g, want 0.8", e.Duration(0.2))
	}
}

func TestScanDetectsDrop(t *testing.T) {
	d, _ := New(100, 10, 3, 2)
	ev := d.Scan(series(100, 20, 10, 15, 100))
	if len(ev) != 1 || ev[0].Direction != Below || ev[0].Peak != 10 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestScanDebouncesShortSpikes(t *testing.T) {
	d, _ := New(100, 10, 3, 3)
	// Two isolated spikes and one 2-bin run: all shorter than MinRun=3.
	ev := d.Scan(series(100, 200, 100, 200, 200, 100, 100))
	if len(ev) != 0 {
		t.Fatalf("short spikes should be debounced, got %+v", ev)
	}
}

func TestScanSplitsDirectionChange(t *testing.T) {
	d, _ := New(100, 10, 3, 2)
	// Above for 2 bins then below for 2 bins with no gap.
	ev := d.Scan(series(180, 180, 20, 20))
	if len(ev) != 2 {
		t.Fatalf("events = %+v, want 2", ev)
	}
	if ev[0].Direction != Above || ev[1].Direction != Below {
		t.Fatalf("directions = %v, %v", ev[0].Direction, ev[1].Direction)
	}
}

func TestScanEventAtSeriesEnd(t *testing.T) {
	d, _ := New(100, 10, 3, 2)
	ev := d.Scan(series(100, 100, 170, 180))
	if len(ev) != 1 || ev[0].EndBin != 3 {
		t.Fatalf("trailing event not flushed: %+v", ev)
	}
}

func TestDirectionString(t *testing.T) {
	if Above.String() != "above" || Below.String() != "below" {
		t.Fatal("direction names wrong")
	}
	if Direction(5).String() == "" {
		t.Fatal("unknown direction should format")
	}
}

func TestFromModelBand(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	flows := &core.FlowPop{}
	for range 800 {
		s := 1e5 * math.Exp(rng.NormFloat64())
		flows.Append(s, 0.5+2*rng.Float64())
	}
	m, err := core.NewModel(200, core.Triangular, flows)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromModel(m, 0.2, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mu-m.Mean()) > 1e-9 {
		t.Fatalf("detector mean %g vs model %g", d.Mu, m.Mean())
	}
	// σ_Δ ≤ σ (averaging can only smooth).
	if d.Sigma > m.StdDev()+1e-9 {
		t.Fatalf("detector sigma %g exceeds instantaneous %g", d.Sigma, m.StdDev())
	}
	if _, err := FromModel(m, 0, 3, 5); err == nil {
		t.Fatal("zero delta should be rejected")
	}
}

// A Gaussian stationary series at the model's moments should essentially
// never trip a z=4, minRun=4 detector; an injected flood must.
func TestFalsePositiveAndDetectionRates(t *testing.T) {
	const mu, sigma = 1e6, 5e4
	d, _ := New(mu, sigma, 4, 4)
	rng := rand.New(rand.NewSource(2))
	rates := make([]float64, 20000)
	for i := range rates {
		rates[i] = mu + sigma*rng.NormFloat64()
	}
	if ev := d.Scan(timeseries.Series{Delta: 0.2, Rate: rates}); len(ev) != 0 {
		t.Fatalf("false positives on clean Gaussian traffic: %+v", ev)
	}
	// Inject a 50-bin flood at +8σ.
	for k := 5000; k < 5050; k++ {
		rates[k] += 8 * sigma
	}
	ev := d.Scan(timeseries.Series{Delta: 0.2, Rate: rates})
	if len(ev) != 1 {
		t.Fatalf("flood not isolated: %+v", ev)
	}
	if ev[0].StartBin > 5004 || ev[0].EndBin < 5045 {
		t.Fatalf("flood bounds wrong: %+v", ev[0])
	}
}
