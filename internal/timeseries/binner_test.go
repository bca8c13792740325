package timeseries

import (
	"testing"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

func binRec(t float64, bytes uint16) trace.Record {
	return trace.Record{Time: t, Hdr: netpkt.Header{TotalLen: bytes}}
}

// The streaming binner must agree with the materialised Bin and survive
// Reset between windows.
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

	recs := []trace.Record{
		binRec(0.05, 100),
		binRec(0.15, 200),
		binRec(0.95, 300),
		binRec(-1, 999), // outside the window, ignored
		binRec(10, 999), // outside the window, ignored
	}
	want, err := Bin(recs, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBinner(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		b.AddRecord(r)
	}
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
