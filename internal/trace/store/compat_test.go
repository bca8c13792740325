package store

import (
	"testing"

	"repro/internal/trace"
)

// footerFixture is a store written by the format's first writer, which
// appended a checkpoint footer frame (type 3) after the segments and
// pointed the trailer at it. It holds footerFixtureCfg's trace in segments
// of 16 packets, with a checkpoint every second.
const footerFixture = "testdata/with-footer.fstore"

// footerFixtureCfg is the configuration footerFixture was generated from.
func footerFixtureCfg() trace.Config {
	cfg := testCfg(5)
	cfg.Duration, cfg.Lambda, cfg.Warmup = 2, 20, 1
	return cfg
}

// A store that carries a checkpoint footer must keep opening cleanly, on
// either backing, and replay the packets and summary of a fresh synthesis.
func TestOpensStoreWithFooter(t *testing.T) {
	ref, refSum := synthRecords(t, footerFixtureCfg())
	for _, readAt := range []bool{false, true} {
		r, err := open(footerFixture, readAt)
		if err != nil {
			t.Fatalf("readAt=%v: Open: %v", readAt, err)
		}
		if r.Summary() != refSum {
			t.Fatalf("readAt=%v: summary %+v, want %+v", readAt, r.Summary(), refSum)
		}
		if r.Packets() != int64(len(ref)) {
			t.Fatalf("readAt=%v: %d packets, want %d", readAt, r.Packets(), len(ref))
		}
		mustEqualRecords(t, "fixture stream", streamRecords(t, r, 0), ref)
		r.Close()
	}
}
