package trace

import (
	"context"
	"testing"

	"repro/internal/dist"
	"repro/internal/netpkt"
)

// blockRecord unpacks packet i of b into a Record.
func blockRecord(b *Block, i int) Record {
	return Record{Time: b.Times[i], Hdr: netpkt.HeaderFromPacked(b.Srcs[i], b.Dsts[i], b.Sizes[i])}
}

// generateAll materialises cfg's serial block stream as records: the
// reference every other path of the package must reproduce.
func generateAll(cfg Config) ([]Record, Summary, error) {
	var recs []Record
	sum, err := streamSerial(context.Background(), cfg, func(blk *Block) error {
		for i := range blk.Len() {
			recs = append(recs, blockRecord(blk, i))
		}
		return nil
	})
	if err != nil {
		return nil, Summary{}, err
	}
	return recs, sum, nil
}

// prefixWindow is the reference replay of the window [lo, hi) of cfg's
// trace: the whole serial stream from the trace origin, restricted to
// [lo, hi) and rebased to lo.
func prefixWindow(cfg Config, lo, hi float64) ([]Record, error) {
	all, _, err := generateAll(cfg)
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, r := range all {
		if r.Time >= lo && r.Time < hi {
			r.Time -= lo
			out = append(out, r)
		}
	}
	return out, nil
}

// Invalid configs must surface the config validation error from the
// serial reference too.
func TestGenerateAllInvalidConfigErrors(t *testing.T) {
	if _, _, err := generateAll(Config{Duration: -5, Lambda: 100}); err == nil {
		t.Fatal("invalid config should return an error")
	}
}

// The public block stream at one worker must yield exactly the packets and
// summary that the serial reference generateAll materialises.
func TestStreamMatchesGenerateAll(t *testing.T) {
	cfg := smallConfig(31, dist.Constant{V: 2})
	want, wantSum, err := generateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty reference trace")
	}

	var streamed []Record
	sum, err := StreamParallelBlocksCtx(context.Background(), cfg, 1, func(blk *Block) error {
		for i := 0; i < blk.Len(); i++ {
			streamed = append(streamed, blockRecord(blk, i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("Stream yielded %d packets, want %d", len(streamed), len(want))
	}
	for i := range want {
		if streamed[i] != want[i] {
			t.Fatalf("Stream packet %d differs: %+v vs %+v", i, streamed[i], want[i])
		}
	}
	if sum != wantSum {
		t.Fatalf("Stream summary %+v, want %+v", sum, wantSum)
	}
}
