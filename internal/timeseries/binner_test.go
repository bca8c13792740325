package timeseries

import (
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/trace"
)

// The block path must agree with per-packet Add and survive Reinit between
// windows.
func TestBinnerMatchesBinAndResets(t *testing.T) {
	if _, err := NewBinner(10, 0); err == nil {
		t.Fatal("zero delta should be rejected")
	}
	if _, err := NewBinner(0, 1); err == nil {
		t.Fatal("zero duration should be rejected")
	}
	if _, err := NewBinner(0.5, 1); err == nil {
		t.Fatal("duration < delta should be rejected")
	}
	// Non-finite bounds and bin counts past MaxBins must fail cleanly, not
	// wrap the int conversion or attempt the allocation.
	inf := math.Inf(1)
	for _, c := range [][2]float64{{inf, 0.2}, {10, inf}, {math.NaN(), 0.2}, {10, math.NaN()}, {1e15, 0.2}, {0.2 * (MaxBins + 2), 0.2}} {
		if _, err := NewBinner(c[0], c[1]); err == nil {
			t.Fatalf("NewBinner(%g, %g) should be rejected", c[0], c[1])
		}
	}

	recs := []trace.Record{
		rec(0.05, 100),
		rec(0.15, 200),
		rec(0.95, 300),
		rec(-1, 999), // outside the window, ignored
		rec(10, 999), // outside the window, ignored
	}
	want, err := bin(recs, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBinner(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	blk := &trace.Block{}
	for _, r := range recs {
		blk.Append(r.Time, r.Hdr.TotalLen, 0, 0)
	}
	b.AddBlock(blk)
	first := b.Series()
	if len(first.Rate) != len(want.Rate) {
		t.Fatalf("series length %d, want %d", len(first.Rate), len(want.Rate))
	}
	for k := range want.Rate {
		if first.Rate[k] != want.Rate[k] {
			t.Fatalf("bin %d: %g, want %g", k, first.Rate[k], want.Rate[k])
		}
	}

	// The snapshot owns its storage: mutating it must not leak back.
	first.Rate[0] = -1
	if again := b.Series(); again.Rate[0] == -1 {
		t.Fatal("Series must snapshot, not alias, the binner's storage")
	}

	if err := b.Reinit(1, 0.1); err != nil {
		t.Fatal(err)
	}
	empty := b.Series()
	for k, v := range empty.Rate {
		if v != 0 {
			t.Fatalf("bin %d nonzero after Reinit: %g", k, v)
		}
	}
	b.Add(0.25, 800) // 800 bits in bin 2 of a 0.1 s grid -> 8000 bit/s
	if got := b.Series().Rate[2]; got != 8000 {
		t.Fatalf("rate after reuse = %g, want 8000", got)
	}
}

// A window that is not a whole number of bins ends at its last whole bin:
// a packet in the trailing partial bin [nΔ, duration) is ignored by Add
// exactly as Series.Subtract ignores it, so adding and then subtracting
// that packet leaves every bin at zero.
func TestBinnerDropsTrailingPartialBin(t *testing.T) {
	b, err := NewBinner(10.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(10.05, 800)
	s := b.Series()
	if len(s.Rate) != 50 {
		t.Fatalf("%d bins, want 50", len(s.Rate))
	}
	s.Subtract([]flow.DiscardedPacket{{Time: 10.05, Bits: 800}})
	for k, v := range s.Rate {
		if v != 0 {
			t.Fatalf("bin %d = %g after adding and subtracting one tail packet", k, v)
		}
	}
}
