package trace

import (
	"context"
	"testing"

	"repro/internal/dist"
	"repro/internal/netpkt"
)

// The streaming faces (the serial block producer, Records) must yield
// exactly the packets and summary that GenerateAll materialises.
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

	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for r := range g.Records() {
		if r != want[i] {
			t.Fatalf("Records packet %d differs", i)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("Records yielded %d packets, want %d", i, len(want))
	}
	if g.Stats() != wantSum {
		t.Fatalf("Records summary %+v, want %+v", g.Stats(), wantSum)
	}
}

// Breaking out of Records must leave the generator resumable from the next
// packet.
func TestRecordsEarlyBreakResumes(t *testing.T) {
	cfg := smallConfig(32, dist.Constant{V: 1})
	want, _, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 10 {
		t.Fatalf("trace too short for the test: %d packets", len(want))
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range g.Records() {
		n++
		if n == 5 {
			break
		}
	}
	next, ok := g.Next()
	if !ok || next != want[5] {
		t.Fatalf("generator did not resume at packet 5: %+v", next)
	}
}

// blockRecord reconstructs packet i of blk as a Record.
func blockRecord(blk *Block, i int) Record {
	return Record{Time: blk.Times[i], Hdr: netpkt.HeaderFromPacked(blk.Srcs[i], blk.Dsts[i], blk.Sizes[i])}
}
