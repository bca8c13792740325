package trace

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/rng"
)

// Checkpointed replay must be record-for-record identical to prefix replay
// for shallow, deep, boundary-straddling and boundary-aligned windows.
func TestCheckpointWindowMatchesPrefixReplay(t *testing.T) {
	cfg := windowTestConfig(t) // Duration 30, Warmup 10
	ck, err := NewCheckpoints(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Flows() == 0 {
		t.Fatal("checkpoint index holds no flows")
	}
	windows := [][2]float64{
		{0, 5},        // trace origin: only warm-up carry-over
		{10, 20},      // mid-trace, off the checkpoint grid's phase
		{12, 12.5},    // narrow, both bounds inside one checkpoint span
		{16, 24},      // straddles two checkpoint boundaries
		{28, 30},      // deep offset, flows truncated at the horizon
		{29.5, 40},    // hi past the trace end
		{24, 28},      // exactly checkpoint-aligned bounds
		{7.999, 8.25}, // lo an ulp shy of a boundary
	}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		want, err := prefixWindow(cfg, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ckw, err := ck.Window(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for replay := 0; replay < 2; replay++ {
			got := slices.Collect(ckw.Records())
			if len(got) != len(want) {
				t.Fatalf("window [%g,%g) replay %d: %d records, want %d", lo, hi, replay, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("window [%g,%g) replay %d: record %d = %+v, want %+v", lo, hi, replay, i, got[i], want[i])
				}
			}
		}
	}
}

// Random windows across many seeds hammer the boundary classification (a
// flow in active[j] and in the fresh-arrival run must be two disjoint sets).
func TestCheckpointWindowRandomized(t *testing.T) {
	r := rng.New(99)
	for _, seed := range []int64{3, 17} {
		cfg := smallConfig(seed, dist.Uniform{Lo: 0.5, Hi: 2.5})
		ck, err := NewCheckpoints(cfg, 3.3)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 12; trial++ {
			lo := r.Float64() * cfg.Duration
			hi := lo + 0.1 + r.Float64()*5
			want, err := prefixWindow(cfg, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			ckw, err := ck.Window(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			got := slices.Collect(ckw.Records())
			if len(got) != len(want) {
				t.Fatalf("seed %d window [%g,%g): %d records, want %d", seed, lo, hi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d window [%g,%g): record %d differs", seed, lo, hi, i)
				}
			}
		}
	}
}

// Early break must not poison later replays (fresh state per iteration).
func TestCheckpointWindowEarlyBreak(t *testing.T) {
	cfg := windowTestConfig(t)
	ck, err := NewCheckpoints(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ck.Window(20, 25)
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
	if full := slices.Collect(w.Records()); len(full) < 3 {
		t.Fatalf("replay after early break saw %d records, want >= 3", len(full))
	}
}

func TestCheckpointValidation(t *testing.T) {
	cfg := windowTestConfig(t)
	if _, err := NewCheckpoints(cfg, 0); err == nil {
		t.Fatal("zero spacing should be rejected")
	}
	if _, err := NewCheckpoints(Config{}, 5); err == nil {
		t.Fatal("invalid config should be rejected")
	}
	ck, err := NewCheckpoints(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Every() != 5 {
		t.Fatalf("Every = %g, want 5", ck.Every())
	}
	if _, err := ck.Window(-1, 5); err == nil {
		t.Fatal("negative lo should be rejected")
	}
	if _, err := ck.Window(5, 5); err == nil {
		t.Fatal("empty window should be rejected")
	}
}

// The destination address must keep the host byte in [1, 253] and never
// carry into the /24 prefix bits (the host-byte expression is parenthesised
// precisely so the +1 cannot ripple upward).
func TestFlowDstAddressStaysInPrefix(t *testing.T) {
	base := smallConfig(55, dist.Constant{V: 1})
	// 256 prefixes keep prefix<<8 inside the third octet, so any carry out
	// of the host byte would be visible in the upper half-word.
	base.Prefixes = 256
	base.PopularPrefixes = 8
	cfg, err := base.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cfg.UDPFraction = 0.3
	src, err := newProgramSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	src.run(cfg.Warmup+cfg.Duration, func(p FlowProgram) {
		n++
		addr := p.Hdr.DstIP.Uint32()
		host := addr & 0xFF
		if host < 1 || host > 253 {
			t.Fatalf("flow %d: host byte %d outside [1, 253] (addr %v)", p.Index, host, p.Hdr.DstIP)
		}
		// The host byte is a pure function of the flow id; anything else
		// means the +1 leaked outside the parenthesised host expression.
		if want := p.Index%253 + 1; host != want {
			t.Fatalf("flow %d: host byte %d, want %d", p.Index, host, want)
		}
		// With prefixes confined to the third octet, the upper half-word is
		// exactly the 172.16.0.0 base — a carry into the prefix bits would
		// perturb it.
		if addr>>16 != 0xAC10 {
			t.Fatalf("flow %d: address %v carried into the prefix bits", p.Index, p.Hdr.DstIP)
		}
	})
	if n == 0 {
		t.Fatal("no flows generated")
	}
}

// geometric must stay exact for realistic means and terminate (capped) even
// when the success probability underflows to ~0.
func TestGeometricCapped(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		if n := geometric(8, r); n < 1 || n >= maxSessionFlows {
			t.Fatalf("geometric(8) = %d out of expected range", n)
		}
	}
	if n := geometric(1, r); n != 1 {
		t.Fatalf("geometric(1) = %d, want 1", n)
	}
	if n := geometric(math.MaxFloat64, r); n != maxSessionFlows {
		t.Fatalf("geometric(huge) = %d, want the %d cap", n, maxSessionFlows)
	}
}

// The capacity estimate must clamp huge and degenerate products instead of
// overflowing the int conversion.
func TestCapacityEstimate(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{
		{-5, 0},
		{0, 0},
		{math.NaN(), 0},
		{1000, 1000},
		{math.MaxFloat64, maxCapacityEstimate},
		{math.Inf(1), maxCapacityEstimate},
		{1e18 * 8, maxCapacityEstimate}, // the overflow case: Duration·Lambda·8 past int64
	}
	for _, c := range cases {
		if got := capacityEstimate(c.in); got != c.want {
			t.Fatalf("capacityEstimate(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}
