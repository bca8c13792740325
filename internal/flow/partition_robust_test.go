package flow

import (
	"context"
	"errors"
	"sync"
	"testing"

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

// streamCollector keeps each handed-off stream for a drain after
// Close/Abort — the "consumer arrives late" shape that makes the
// cancellation test deterministic.
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

func (c *streamCollector) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, is := range c.streams {
		for range is.Blocks() {
		}
	}
}

// A cancelled context must unwind a producer blocked on a full stream with
// a wrapped context error instead of wedging it, and every block — sent or
// pending — must return to the pool. Until then the undrained stream holds
// no more than its structure allows: buffer/blockSize sent blocks plus the
// one pending block. That bound, times the suite's cap on streams in
// flight, is what limits the suite's block memory.
func TestPartitionerContextCancelUnblocksSend(t *testing.T) {
	base := trace.LiveBlocks()
	ctx, cancel := context.WithCancel(context.Background())
	col := &streamCollector{}
	const buffer, blockSize = 2, 2
	p, err := NewIntervalPartitioner(100, 0, buffer, col.handoff)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetBlockSize(blockSize); err != nil {
		t.Fatal(err)
	}
	if err := p.SetContext(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Channel capacity is buffer/blockSize = 1: the first full block ships,
	// the second must hit the cancelled-send path.
	feedErr := feedRecords(p, 64)
	if held, limit := trace.LiveBlocks()-base, int64(buffer/blockSize+1); held > limit {
		t.Fatalf("undrained stream holds %d blocks, structural bound is %d", held, limit)
	}
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

// SetContext and SetBlockSize are construction-time knobs: once a packet
// has been routed they must be rejected.
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
	if err := p.SetBlockSize(8); err == nil {
		t.Fatal("SetBlockSize accepted after the first packet")
	}
	p.Abort()
	col.drain()
}

// A consumer panicking out of Blocks must not leak the in-hand block or the
// undrained remainder — the deferred drain runs on the unwind.
func TestIntervalStreamIteratorsPanicSafe(t *testing.T) {
	t.Run("blocks", func(t *testing.T) {
		base := trace.LiveBlocks()
		is := &IntervalStream{blocks: make(chan *trace.Block, 4)}
		for i := 0; i < 3; i++ {
			blk := trace.GetBlock()
			blk.Append(float64(i), 1, 1, 1)
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
	})
}
