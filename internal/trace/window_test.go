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
	const lo, hi = 10.0, 20.0
	want, err := prefixWindow(cfg, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("window unexpectedly empty")
	}
	ck, err := NewCheckpoints(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ck.Window(lo, hi)
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
	}
}

// Breaking out of a window iteration at the trace origin early must leave
// later replays intact (each call plays a fresh stream).
func TestWindowReplayAfterEarlyBreak(t *testing.T) {
	cfg := windowTestConfig(t)
	ck, err := NewCheckpoints(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ck.Window(0, 5)
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

// A window over an invalid config cannot be built: the checkpoint index it
// replays from validates the config first.
func TestWindowValidation(t *testing.T) {
	cfg := windowTestConfig(t)
	bad := cfg
	bad.Duration = 0
	if _, err := NewCheckpoints(bad, 5); err == nil {
		t.Fatal("invalid config should be rejected")
	}
	// An infinite Lambda would never finish the arrival process.
	bad = cfg
	bad.Lambda = math.Inf(1)
	if _, err := NewCheckpoints(bad, 5); err == nil {
		t.Fatal("infinite Lambda should be rejected")
	}
}
