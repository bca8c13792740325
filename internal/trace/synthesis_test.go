package trace

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
)

// collectParallel drains StreamParallelBlocksCtx into a record slice.
func collectParallel(t *testing.T, cfg Config, workers int) ([]Record, Summary) {
	t.Helper()
	var recs []Record
	sum, err := StreamParallelBlocksCtx(context.Background(), cfg, workers, func(blk *Block) error {
		for i := 0; i < blk.Len(); i++ {
			recs = append(recs, blockRecord(blk, i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != sum.Packets {
		t.Fatalf("workers=%d: streamed %d packets, summary says %d", workers, len(recs), sum.Packets)
	}
	return recs, sum
}

// The sharded synthesiser must reproduce the serial generator bit for bit —
// same records, same order, same summary — at any worker count, on configs
// with warm-up carry-over, mixed shot exponents and session clustering.
func TestStreamParallelMatchesSerial(t *testing.T) {
	cfgs := map[string]Config{
		"warmup-mixed-b": smallConfig(21, dist.Uniform{Lo: 1.5, Hi: 2.5}),
		"rectangular":    smallConfig(22, dist.Constant{V: 0}),
		"no-warmup": func() Config {
			c := smallConfig(23, dist.Constant{V: 2})
			c.Warmup = 0
			return c
		}(),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			want, wantSum, err := GenerateAll(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("serial generator produced no packets")
			}
			for _, workers := range []int{2, 3, 16} {
				got, gotSum := collectParallel(t, cfg, workers)
				if gotSum != wantSum {
					t.Fatalf("workers=%d: summary %+v, want %+v", workers, gotSum, wantSum)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: record %d = %+v, want %+v", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// A long-duration config shards into many segments per worker; the merge
// must still be seamless across every internal boundary.
func TestStreamParallelManySegments(t *testing.T) {
	size, _ := dist.NewBoundedPareto(1.3, 2000, 100000)
	rate, _ := dist.LognormalFromMoments(150e3, 1)
	cfg := Config{
		Duration:  90,
		Lambda:    25,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Uniform{Lo: 0.5, Hi: 2.5},
		Warmup:    30,
		Seed:      5,
	}
	want, wantSum, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSum := collectParallel(t, cfg, 4) // 16 segments over 90 s
	if gotSum != wantSum {
		t.Fatalf("summary %+v, want %+v", gotSum, wantSum)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// workers <= 1 must take the serial path and agree with GenerateAll;
// invalid configs must be rejected before any goroutine spawns.
func TestStreamParallelFallbackAndValidation(t *testing.T) {
	cfg := smallConfig(31, dist.Constant{V: 1})
	want, wantSum, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1} {
		got, gotSum := collectParallel(t, cfg, workers)
		if len(got) != len(want) || gotSum != wantSum {
			t.Fatalf("workers=%d: %d records %+v, want %d %+v", workers, len(got), gotSum, len(want), wantSum)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: record %d differs", workers, i)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		if _, err := StreamParallelBlocksCtx(context.Background(), Config{}, workers, func(*Block) error { return nil }); err == nil {
			t.Fatalf("workers=%d: invalid config should be rejected", workers)
		}
	}
}

// An fn error must abort the stream promptly, surface the error, and leave
// no goroutine stuck (the drain discipline); the summary snapshot counts the
// packets of the blocks delivered up to and including the failing one.
func TestStreamParallelAbortsOnError(t *testing.T) {
	cfg := smallConfig(32, dist.Constant{V: 1})
	boom := fmt.Errorf("boom")
	for _, workers := range []int{1, 4} {
		var blocks, delivered int64
		sum, err := StreamParallelBlocksCtx(context.Background(), cfg, workers, func(blk *Block) error {
			blocks++
			delivered += int64(blk.Len())
			if blocks == 3 {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if sum.Packets != delivered {
			t.Fatalf("workers=%d: summary snapshot counted %d packets, want %d", workers, sum.Packets, delivered)
		}
	}
}

// Phase 1 alone must agree with the generator on the flow-level summary and
// emit programs whose packet arithmetic matches the event-heap stepping.
func TestProgramsMatchGenerator(t *testing.T) {
	cfg := smallConfig(41, dist.Uniform{Lo: 0.5, Hi: 2.5})
	progs, sum, err := Programs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, gsum, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Flows != gsum.Flows || sum.OnePktFlows != gsum.OnePktFlows || sum.FlowRate != gsum.FlowRate {
		t.Fatalf("phase-1 summary %+v disagrees with generator %+v", sum, gsum)
	}
	if len(progs) == 0 {
		t.Fatal("no programs emitted")
	}
	for i, p := range progs {
		if p.Index == 0 || p.SizeB < 40 || p.Duration <= 0 || p.PktBytes <= 0 {
			t.Fatalf("program %d malformed: %+v", i, p)
		}
		// PacketTime must replicate the player's byte-cursor stepping bit
		// for bit at every byte position.
		sentB := 0
		for k := 0; k < p.NumPackets(); k++ {
			if got, want := p.PacketTime(k), p.Start+p.offsetAt(sentB); got != want {
				t.Fatalf("program %d packet %d: PacketTime %v, player stepping %v", i, k, got, want)
			}
			sentB += p.PacketSize(k)
		}
		if sentB != p.SizeB {
			t.Fatalf("program %d: packet sizes sum to %d, want %d", i, sentB, p.SizeB)
		}
	}
}

// FirstPacketNotBefore must be the exact inverse of PacketTime: the first
// index at or after t for boundary times, mid-gap times and out-of-range
// times alike.
func TestFirstPacketNotBefore(t *testing.T) {
	cfg := smallConfig(42, dist.Uniform{Lo: 0, Hi: 3})
	progs, _, err := Programs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(p FlowProgram, q float64) {
		k := p.FirstPacketNotBefore(q)
		n := p.NumPackets()
		if k < n && p.PacketTime(k) < q {
			t.Fatalf("flow %d: packet %d at %v precedes t=%v", p.Index, k, p.PacketTime(k), q)
		}
		if k > 0 && p.PacketTime(k-1) >= q {
			t.Fatalf("flow %d: packet %d at %v already >= t=%v", p.Index, k-1, p.PacketTime(k-1), q)
		}
	}
	for _, p := range progs[:min(len(progs), 200)] {
		check(p, p.Start-1)
		check(p, p.End()+1)
		for k := 0; k < p.NumPackets(); k++ {
			pt := p.PacketTime(k)
			check(p, pt) // exactly on a packet
			check(p, math.Nextafter(pt, math.Inf(1)))
			check(p, math.Nextafter(pt, math.Inf(-1)))
		}
	}
}
