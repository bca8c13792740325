package trace

import (
	"math"
	"testing"
)

func TestDefaultSuiteShape(t *testing.T) {
	specs, err := DefaultSuite(SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(TableI) {
		t.Fatalf("suite has %d traces, want %d", len(specs), len(TableI))
	}
	for i, s := range specs {
		// Utilisation fractions preserved: target/link == paperMbps/622.
		wantFrac := TableI[i].AvgMbps * 1e6 / PaperLinkBps
		gotFrac := s.TargetBps / 100e6
		if math.Abs(gotFrac-wantFrac) > 1e-9 {
			t.Fatalf("trace %d utilisation fraction %g, want %g", i, gotFrac, wantFrac)
		}
		if s.Intervals < 1 {
			t.Fatalf("trace %d has no intervals", i)
		}
		if s.Lambda <= 0 {
			t.Fatalf("trace %d lambda = %g", i, s.Lambda)
		}
		cfg := s.Config()
		if cfg.Duration != float64(s.Intervals)*s.IntervalSec {
			t.Fatalf("trace %d duration %g != intervals×interval %g",
				i, cfg.Duration, float64(s.Intervals)*s.IntervalSec)
		}
	}
	// Interval counts proportional to paper lengths: the 39.5 h trace has
	// the most, the 6 h trace the fewest.
	if specs[3].Intervals <= specs[2].Intervals {
		t.Fatalf("longest paper trace should have most intervals: %d vs %d",
			specs[3].Intervals, specs[2].Intervals)
	}
}

func TestDefaultSuiteMaxIntervals(t *testing.T) {
	specs, err := DefaultSuite(SuiteOptions{MaxIntervals: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if s.Intervals > 3 {
			t.Fatalf("trace %d has %d intervals, cap is 3", i, s.Intervals)
		}
	}
}

func TestSuiteTraceRealisesTargetRate(t *testing.T) {
	specs, err := DefaultSuite(SuiteOptions{
		LinkBps:          20e6, // small scale for test speed
		IntervalSec:      30,
		IntervalsPerHour: 0.2,
		MaxIntervals:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Check the busiest trace (index 2: 262 Mb/s on OC-12).
	s := specs[2]
	cfg := s.Config()
	cfg.Warmup = 60
	_, sum, err := generateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Horizon truncation biases slightly low; accept [0.75, 1.1]×target.
	ratio := sum.AvgRateBps / s.TargetBps
	if ratio < 0.75 || ratio > 1.1 {
		t.Fatalf("realised rate %g = %.2f× target %g", sum.AvgRateBps, ratio, s.TargetBps)
	}
}

func TestFlowSizeDistProducesMiceAndElephants(t *testing.T) {
	d, err := FlowSizeDist()
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Mean(); m < 1000 || m > 50000 {
		t.Fatalf("mean flow size %g bytes looks wrong", m)
	}
}
