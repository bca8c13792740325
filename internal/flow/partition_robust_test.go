package flow

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/membudget"
	"repro/internal/trace"
)

// feedRecords pushes n records at 1 s spacing into the partitioner, one
// record per block.
func feedRecords(p *IntervalPartitioner, n int) error {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = rec(float64(i), 1, 1, 1000, 100)
	}
	return partitionBlocks(p, recs, 1)
}

// drainCounts collects each handed-off stream and returns a drain function
// usable after Close/Abort — the "consumer arrives late" shape that makes
// budget tests deterministic.
type streamCollector struct {
	mu      sync.Mutex
	streams []*IntervalStream
}

func (c *streamCollector) handoff(is *IntervalStream) error {
	c.mu.Lock()
	c.streams = append(c.streams, is)
	c.mu.Unlock()
	return nil
}

func (c *streamCollector) drain() (perInterval []int, shed []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, is := range c.streams {
		n := 0
		for blk := range is.Blocks() {
			n += blk.Len()
		}
		perInterval = append(perInterval, n)
		shed = append(shed, is.Shed())
	}
	return perInterval, shed
}

// A cancelled context must unwind a producer blocked on a full stream with
// a wrapped context error instead of wedging it, and every block — sent or
// pending — must return to the pool.
func TestPartitionerContextCancelUnblocksSend(t *testing.T) {
	base := trace.LiveBlocks()
	ctx, cancel := context.WithCancel(context.Background())
	col := &streamCollector{}
	p, err := NewIntervalPartitioner(100, 0, 2, col.handoff)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetBlockSize(2); err != nil {
		t.Fatal(err)
	}
	if err := p.SetContext(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Channel capacity is buffer/blockSize = 1: the first full block ships,
	// the second must hit the cancelled-send path.
	feedErr := feedRecords(p, 64)
	if feedErr == nil {
		t.Fatal("feeding a cancelled partitioner with a full stream succeeded")
	}
	if !errors.Is(feedErr, context.Canceled) {
		t.Fatalf("feed error %v does not wrap context.Canceled", feedErr)
	}
	p.Abort()
	col.drain()
	if got := trace.LiveBlocks(); got != base {
		t.Fatalf("leaked %d pool blocks on the cancellation path", got-base)
	}
}

// SetContext and SetBudget are construction-time knobs: once a packet has
// been routed they must be rejected.
func TestPartitionerSettersRejectedAfterFirstPacket(t *testing.T) {
	col := &streamCollector{}
	p, err := NewIntervalPartitioner(100, 0, 16, col.handoff)
	if err != nil {
		t.Fatal(err)
	}
	if err := partitionBlocks(p, []trace.Record{rec(0, 1, 1, 1000, 100)}, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.SetContext(context.Background()); err == nil {
		t.Fatal("SetContext accepted after the first packet")
	}
	b, _ := membudget.New(1 << 20)
	if err := p.SetBudget(b, false); err == nil {
		t.Fatal("SetBudget accepted after the first packet")
	}
	p.Abort()
	col.drain()
}

// Backpressure mode: a one-block budget with a concurrent consumer must
// deliver every record exactly as an unbudgeted run would — bounded memory
// never changes output, only producer latency.
func TestPartitionerBudgetBackpressureExactOutput(t *testing.T) {
	base := trace.LiveBlocks()
	run := func(budget *membudget.Budget) []int {
		var mu sync.Mutex
		counts := map[int]int{}
		var wg sync.WaitGroup
		p, err := NewIntervalPartitioner(10, 40, 64, func(is *IntervalStream) error {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := 0
				for blk := range is.Blocks() {
					n += blk.Len()
				}
				mu.Lock()
				counts[is.Index] = n
				mu.Unlock()
			}()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetBlockSize(4); err != nil {
			t.Fatal(err)
		}
		if budget != nil {
			if err := p.SetBudget(budget, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := feedRecords(p, 35); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		out := make([]int, 4)
		for idx, n := range counts {
			out[idx] = n
		}
		return out
	}
	free := run(nil)
	// A 1-byte budget clamps every block reservation to the whole limit:
	// exactly one block may be in flight at a time — maximal backpressure.
	tight, err := membudget.New(1)
	if err != nil {
		t.Fatal(err)
	}
	squeezed := run(tight)
	for i := range free {
		if free[i] != squeezed[i] {
			t.Fatalf("interval %d: %d records under budget, %d without", i, squeezed[i], free[i])
		}
	}
	if tight.Used() != 0 {
		t.Fatalf("budget still holds %d bytes after a balanced run", tight.Used())
	}
	if tight.Waits() == 0 {
		t.Fatal("one-block budget never blocked the producer — backpressure untested")
	}
	if got := trace.LiveBlocks(); got != base {
		t.Fatalf("leaked %d pool blocks", got-base)
	}
}

// Shed mode: with a one-block budget and a consumer that only drains after
// the trace ends, everything past the first block must be dropped — and
// every drop accounted: shed streams flagged, interval and record counters
// exact, budget balanced after the drain.
func TestPartitionerShedModeAccountsDrops(t *testing.T) {
	base := trace.LiveBlocks()
	budget, err := membudget.New(1)
	if err != nil {
		t.Fatal(err)
	}
	col := &streamCollector{}
	// intervals of 10 s over a declared 30 s: intervals 0 and 1 get records,
	// interval 2 stays empty.
	p, err := NewIntervalPartitioner(10, 30, 64, col.handoff)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetBlockSize(4); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBudget(budget, true); err != nil {
		t.Fatal(err)
	}
	if err := feedRecords(p, 20); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	counts, shed := col.drain()
	// Interval 0: first block of 4 ships, the remaining 6 records drop.
	// Interval 1 (records 10..19): budget still held, all 10 drop.
	wantCounts := []int{4, 0, 0}
	wantShed := []bool{true, true, false}
	for i := range wantCounts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("interval %d drained %d records, want %d (all: %v)", i, counts[i], wantCounts[i], counts)
		}
		if shed[i] != wantShed[i] {
			t.Fatalf("interval %d shed = %v, want %v", i, shed[i], wantShed[i])
		}
	}
	ivs, recsDropped := p.ShedStats()
	if ivs != 2 || recsDropped != 16 {
		t.Fatalf("ShedStats = (%d, %d), want (2, 16)", ivs, recsDropped)
	}
	if budget.Used() != 0 {
		t.Fatalf("budget still holds %d bytes after drain", budget.Used())
	}
	if got := trace.LiveBlocks(); got != base {
		t.Fatalf("leaked %d pool blocks", got-base)
	}
}

// A consumer panicking out of Blocks must not leak the in-hand block, the
// undrained remainder, or their budget reservations — the deferred drain
// runs on the unwind.
func TestIntervalStreamIteratorsPanicSafe(t *testing.T) {
	t.Run("blocks", func(t *testing.T) {
		base := trace.LiveBlocks()
		budget, err := membudget.New(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		bytes := trace.BlockCost(trace.BlockSize)
		is := &IntervalStream{blocks: make(chan *trace.Block, 4), budget: budget, blockBytes: bytes}
		for i := 0; i < 3; i++ {
			blk := trace.GetBlock()
			blk.Append(float64(i), 1, 1, 1)
			if err := budget.Reserve(context.Background(), bytes); err != nil {
				t.Fatal(err)
			}
			is.blocks <- blk
		}
		close(is.blocks)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("consumer panic did not propagate")
				}
			}()
			for range is.Blocks() {
				panic("consumer exploded")
			}
		}()
		if got := trace.LiveBlocks(); got != base {
			t.Fatalf("leaked %d pool blocks across consumer panic", got-base)
		}
		if budget.Used() != 0 {
			t.Fatalf("leaked %d budget bytes across consumer panic", budget.Used())
		}
	})
}
