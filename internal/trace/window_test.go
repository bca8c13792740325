package trace

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
)

func windowTestConfig(t *testing.T) Config {
	t.Helper()
	size, err := dist.NewBoundedPareto(1.3, 3000, 300000)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := dist.LognormalFromMoments(250e3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Duration:  30,
		Lambda:    40,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: 1},
		Warmup:    10,
		Seed:      33,
	}
}

// A window must reproduce exactly the full trace's records restricted to
// [Lo, Hi), rebased to Lo — and reproduce them again on replay.
func TestWindowMatchesFullTrace(t *testing.T) {
	cfg := windowTestConfig(t)
	all, _, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 10.0, 20.0
	var want []Record
	for _, r := range all {
		if r.Time >= lo && r.Time < hi {
			r.Time -= lo
			want = append(want, r)
		}
	}
	w, err := NewWindow(cfg, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for replay := 0; replay < 2; replay++ {
		got := slices.Collect(w.Records())
		if len(got) != len(want) {
			t.Fatalf("replay %d: %d records, want %d", replay, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replay %d: record %d = %+v, want %+v", replay, i, got[i], want[i])
			}
		}
		if len(got) == 0 {
			t.Fatal("window unexpectedly empty")
		}
	}
}

// Breaking out of a window iteration early must leave later replays intact
// (each call builds a fresh generator).
func TestWindowReplayAfterEarlyBreak(t *testing.T) {
	cfg := windowTestConfig(t)
	w, err := NewWindow(cfg, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range w.Records() {
		n++
		if n == 3 {
			break
		}
	}
	full := slices.Collect(w.Records())
	if len(full) < 3 {
		t.Fatalf("replay after early break saw %d records, want >= 3", len(full))
	}
}

func TestWindowValidation(t *testing.T) {
	cfg := windowTestConfig(t)
	if _, err := NewWindow(cfg, -1, 5); err == nil {
		t.Fatal("negative lo should be rejected")
	}
	if _, err := NewWindow(cfg, 5, 5); err == nil {
		t.Fatal("empty window should be rejected")
	}
	bad := cfg
	bad.Duration = 0
	if _, err := NewWindow(bad, 0, 5); err == nil {
		t.Fatal("invalid config should be rejected")
	}
	// An infinite Lambda would never finish the arrival process.
	bad = cfg
	bad.Lambda = math.Inf(1)
	if _, err := NewWindow(bad, 0, 5); err == nil {
		t.Fatal("infinite Lambda should be rejected")
	}
}
