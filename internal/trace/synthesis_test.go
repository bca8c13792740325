package trace

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/rng"
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

// The sharded synthesiser must reproduce the serial stream bit for bit —
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
			want, wantSum, err := generateAll(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("serial stream produced no packets")
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
	want, wantSum, err := generateAll(cfg)
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

// workers <= 1 must take the serial path and yield exactly its packets and
// summary; invalid configs must be rejected before any goroutine spawns.
func TestStreamParallelFallbackAndValidation(t *testing.T) {
	cfg := smallConfig(31, dist.Constant{V: 1})
	want, wantSum, err := generateAll(cfg)
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
		for _, bad := range []Config{{}, {Duration: -5, Lambda: 100}} {
			if _, err := StreamParallelBlocksCtx(context.Background(), bad, workers, func(*Block) error { return nil }); err == nil {
				t.Fatalf("workers=%d: invalid config %+v should be rejected", workers, bad)
			}
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
	_, gsum, err := generateAll(cfg)
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

// Cancelling inside fn must return a summary of exactly the packets fn
// received: the serial and sharded paths count per delivered block.
func TestStreamCancelSummaryCountsDelivered(t *testing.T) {
	cfg := smallConfig(33, dist.Constant{V: 1})
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var pkts, bytes int64
		sum, err := StreamParallelBlocksCtx(ctx, cfg, workers, func(blk *Block) error {
			pkts += int64(blk.Len())
			for _, n := range blk.Sizes {
				bytes += int64(n)
			}
			cancel()
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if pkts == 0 {
			t.Fatalf("workers=%d: no block delivered before the cut", workers)
		}
		if sum.Packets != pkts || sum.Bytes != bytes {
			t.Fatalf("workers=%d: summary %d packets / %d bytes, fn received %d / %d",
				workers, sum.Packets, sum.Bytes, pkts, bytes)
		}
	}
}

// panicShot is a shot-exponent sampler that panics on its n-th draw. Phase
// 1 draws it, so in a sharded run the panic unwinds the dispatcher.
type panicShot struct {
	draws *atomic.Int64
	n     int64
}

func (p panicShot) Sample(*rng.Rand) float64 {
	if p.draws.Add(1) == p.n {
		panic("shot sampler exhausted")
	}
	return 1
}

func (panicShot) Mean() float64 { return 1 }

// A panic on the dispatcher must come back as an error, not crash the
// process: the call reports the panic, every pool block taken by the run is
// returned, and no goroutine outlives it. The panic strikes about 16 s
// into the 30 s window, past the segments the in-flight cap lets the
// dispatcher seal ahead of the merger, so blocks are in flight by then.
func TestStreamParallelDispatcherPanic(t *testing.T) {
	for _, workers := range []int{2, 4} {
		baseBlocks, baseGoroutines := LiveBlocks(), runtime.NumGoroutine()
		cfg := smallConfig(34, panicShot{draws: new(atomic.Int64), n: 8500})
		var delivered int64
		sum, err := StreamParallelBlocksCtx(context.Background(), cfg, workers, func(blk *Block) error {
			delivered += int64(blk.Len())
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "synthesis panicked") {
			t.Fatalf("workers=%d: err = %v, want a synthesis panic", workers, err)
		}
		if delivered == 0 || sum.Packets != delivered {
			t.Fatalf("workers=%d: summary counted %d packets, fn received %d", workers, sum.Packets, delivered)
		}
		if got := LiveBlocks(); got != baseBlocks {
			t.Fatalf("workers=%d: %d pool blocks still checked out", workers, got-baseBlocks)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseGoroutines; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines now, %d before", workers, runtime.NumGoroutine(), baseGoroutines)
			}
		}
	}
}

// A caller that cancels with a cause of its own still gets an error
// wrapping context.Canceled from both paths, as from a plain cancel.
func TestStreamCancelWithCause(t *testing.T) {
	cfg := smallConfig(35, dist.Constant{V: 1})
	cause := errors.New("caller's own cause")
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancelCause(context.Background())
		_, err := StreamParallelBlocksCtx(ctx, cfg, workers, func(*Block) error {
			cancel(cause)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// packetDigest folds one packet's columns into an FNV-1a hash.
func packetDigest(h hash.Hash64, t float64, size uint16, src, dst uint64) {
	var buf [26]byte
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(t))
	binary.LittleEndian.PutUint16(buf[8:], size)
	binary.LittleEndian.PutUint64(buf[10:], src)
	binary.LittleEndian.PutUint64(buf[18:], dst)
	h.Write(buf[:])
}

// The serial block stream must keep reproducing pinned packet bits: an
// FNV-1a digest over every column of every packet, plus the summary counts.
// The records generateAll unpacks must repack to the same digest, so the
// record references this package's tests compare against carry the
// stream's exact bits.
func TestSerialStreamDigest(t *testing.T) {
	cases := []struct {
		name                  string
		cfg                   Config
		digest                uint64
		packets, bytes, flows int64
	}{
		{"constant-b", smallConfig(51, dist.Constant{V: 2}), 0x157b42688855b112, 11864, 15972837, 2506},
		{"uniform-b", smallConfig(52, dist.Uniform{Lo: 0.5, Hi: 2.5}), 0x5185bfd868e4d722, 12039, 16222267, 2520},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := fnv.New64a()
			var sizes []int
			sum, err := StreamParallelBlocksCtx(context.Background(), c.cfg, 1, func(blk *Block) error {
				for i := range blk.Len() {
					packetDigest(h, blk.Times[i], blk.Sizes[i], blk.Srcs[i], blk.Dsts[i])
				}
				sizes = append(sizes, blk.Len())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// The block boundaries are part of the stream: every block is
			// full but the last, which is not empty.
			for i, n := range sizes {
				if n != BlockSize && (i < len(sizes)-1 || n == 0) {
					t.Fatalf("block %d of %d holds %d packets", i, len(sizes), n)
				}
			}
			if want := (c.packets + BlockSize - 1) / BlockSize; int64(len(sizes)) != want {
				t.Errorf("stream: %d blocks, want %d", len(sizes), want)
			}
			if h.Sum64() != c.digest || sum.Packets != c.packets || sum.Bytes != c.bytes || sum.Flows != c.flows {
				t.Errorf("stream: digest %#x, %d packets, %d bytes, %d flows; want %#x, %d, %d, %d",
					h.Sum64(), sum.Packets, sum.Bytes, sum.Flows, c.digest, c.packets, c.bytes, c.flows)
			}
			recs, rsum, err := generateAll(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h.Reset()
			for _, r := range recs {
				src, dst := r.Hdr.Packed()
				packetDigest(h, r.Time, r.Hdr.TotalLen, src, dst)
			}
			if h.Sum64() != c.digest || rsum != sum {
				t.Errorf("generateAll: digest %#x, summary %+v; want %#x, %+v", h.Sum64(), rsum, c.digest, sum)
			}
		})
	}
}
