package trace

import (
	"context"
	"testing"

	"repro/internal/dist"
)

// The serial block stream must yield exactly the packets and summary that
// GenerateAll materialises.
func TestStreamMatchesGenerateAll(t *testing.T) {
	cfg := smallConfig(31, dist.Constant{V: 2})
	want, wantSum, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty reference trace")
	}

	var streamed []Record
	sum, err := StreamParallelBlocksCtx(context.Background(), cfg, 1, func(blk *Block) error {
		for i := 0; i < blk.Len(); i++ {
			streamed = append(streamed, blk.Record(i))
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
