package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// LinkConfig wires one link's ingest, pipeline and checkpointing.
type LinkConfig struct {
	// Name labels the link in events and errors.
	Name string
	// Source is the packet stream (required).
	Source BlockSource
	// Pipeline sizes the resident measurement state.
	Pipeline PipelineConfig
	// Store persists checkpoints (nil = no checkpointing: a restart loses
	// all resident state). The link writes one at every interval close —
	// the carried state plus the cursor of the next interval's first packet,
	// one per close even when a block closes several — and one at the end
	// of a bounded source, so a restart re-ingests at most the interval that
	// was open.
	Store *snapshot.Store
	// Shed drops a block the full ingest queue cannot take, with exact
	// accounting, instead of stalling the source (default: the source
	// blocks until the measurement frees a slot).
	Shed bool
}

// queuePackets bounds the packets queued between a link's source and its
// measurement: queueLen full blocks, ~212 KB, the one bound on a link's
// ingest memory. The queued work must outlast a wake-up of the producer, or
// the measuring goroutine idles on an empty queue. At 1 Ki packets (4
// blocks, ~52 µs of measurement at ~50 ns a packet) a runtime trace of
// perfbench's flowd-replay on a 2-core KVM host showed the consumer blocked
// on the queue for ~18 ms of a ~260 ms run, slower than measuring from one
// goroutine; at 8 Ki it never blocked, and packets/s rose 19% (medians of 10
// alternating pairs). The price is close lag, since a saturated source
// queues its backlog ahead of each boundary: p99 went from ~0.2 to ~0.8 ms.
// 16 Ki packets ran faster still but put the p99 past 1.5 ms.
const (
	queuePackets = 8 << 10
	queueLen     = queuePackets / trace.BlockSize
)

// LinkStats are a link's ingest counters, readable while it runs.
type LinkStats struct {
	Blocks      int64 // blocks measured
	Packets     int64 // packets measured
	ShedBlocks  int64 // blocks dropped on a full queue (Shed)
	ShedPackets int64 // packets dropped on a full queue (Shed)
	Checkpoints int64 // checkpoints written
	Restores    int64 // runs resumed from a checkpoint
	FreshStarts int64 // runs started without usable checkpoint state
}

// Link runs one supervised ingest-measure pipeline attempt per Run call:
// restore from the last checkpoint, stream blocks through the pipeline over
// a bounded queue, checkpoint at every interval close, and on
// cancellation stop at the next block and drain — return the queued blocks
// unmeasured and flush the partial interval, which the next run re-measures
// from the last checkpoint. Run is the function handed to Supervisor.Run.
type Link struct {
	cfg LinkConfig

	blocks      atomic.Int64
	packets     atomic.Int64
	shedBlocks  atomic.Int64
	shedPackets atomic.Int64
	checkpoints atomic.Int64
	restores    atomic.Int64
	freshStarts atomic.Int64
}

// NewLink validates the wiring.
func NewLink(cfg LinkConfig) (*Link, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("service: link %q needs a source", cfg.Name)
	}
	return &Link{cfg: cfg}, nil
}

// Stats snapshots the link's counters.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		Blocks:      l.blocks.Load(),
		Packets:     l.packets.Load(),
		ShedBlocks:  l.shedBlocks.Load(),
		ShedPackets: l.shedPackets.Load(),
		Checkpoints: l.checkpoints.Load(),
		Restores:    l.restores.Load(),
		FreshStarts: l.freshStarts.Load(),
	}
}

// item is one owned block in the ingest queue.
type item struct {
	epoch int64
	pos   int64 // packets of the epoch the source delivered before blk, shed ones included
	blk   *trace.Block
}

// restore loads the newest checkpoint into p and returns the ingest cursor.
// Unusable state (no checkpoint, damaged files, configuration mismatch)
// degrades to a fresh start — the link must come up either way.
func (l *Link) restore(p *Pipeline) Cursor {
	if l.cfg.Store == nil {
		return Cursor{}
	}
	secs, _, err := l.cfg.Store.Load()
	if err != nil {
		l.freshStarts.Add(1)
		return Cursor{}
	}
	if err := p.Restore(secs); err != nil {
		l.freshStarts.Add(1)
		return Cursor{}
	}
	cur, err := DecodeCursor(secs)
	if err != nil {
		p.resetAll()
		l.freshStarts.Add(1)
		return Cursor{}
	}
	l.restores.Add(1)
	return cur
}

// checkpoint writes the pipeline state + ingest cursor as one generation.
func (l *Link) checkpoint(p *Pipeline, cur Cursor) error {
	if l.cfg.Store == nil {
		return nil
	}
	secs := append(p.Snapshot(), EncodeCursor(cur))
	if _, err := l.cfg.Store.Save(secs); err != nil {
		return fmt.Errorf("service: link %q checkpoint: %w", l.cfg.Name, err)
	}
	l.checkpoints.Add(1)
	return nil
}

// Run is one supervised attempt: it returns nil only via a clean stop
// (source exhausted or context cancelled — both drain first), a wrapped
// context error on cancellation, or the failure that ended the attempt.
func (l *Link) Run(ctx context.Context) error {
	p, err := NewPipeline(l.cfg.Pipeline)
	if err != nil {
		return MarkPermanent(err)
	}
	cur := l.restore(p)

	ictx, icancel := context.WithCancel(ctx)
	defer icancel()

	ch := make(chan item, queueLen)
	var prodErr error
	end := cur // the source position after its last block; the producer's until it is done

	go func() {
		defer func() {
			if v := recover(); v != nil {
				prodErr = &PanicError{Value: v, Stack: debug.Stack()}
			}
			// The producer's last writes (prodErr, end) happen before this
			// close, so a consumer's range over ch ending orders them.
			close(ch)
		}()
		prodErr = l.cfg.Source.Stream(ictx, cur, func(epoch int64, blk *trace.Block) error {
			n := blk.Len()
			if n == 0 {
				return nil
			}
			if epoch != end.Epoch {
				end = Cursor{Epoch: epoch}
			}
			pos := end.Packets
			end.Packets += int64(n)
			if l.cfg.Shed && len(ch) == cap(ch) {
				// Graceful degradation: drop the block with exact
				// accounting instead of stalling the source. The producer
				// is the only sender, so a queue with room takes the send
				// below without blocking.
				l.shedBlocks.Add(1)
				l.shedPackets.Add(int64(n))
				return nil
			}
			// Copy into an owned block: the source recycles blk after this
			// call, but the queue outlives it.
			ob := trace.GetBlock()
			ob.AppendRebased(blk, 0, n, 0)
			select {
			case ch <- item{epoch: epoch, pos: pos, blk: ob}:
				return nil
			case <-ictx.Done():
				trace.PutBlock(ob)
				return fmt.Errorf("service: link %q ingest: %w", l.cfg.Name, ictx.Err())
			}
		})
	}()

	// discard stops the producer and returns every queued block to the pool
	// until the producer closes ch. After it the producer's last writes
	// (prodErr, end) are visible.
	discard := func() {
		icancel()
		for it := range ch {
			trace.PutBlock(it.blk)
		}
	}
	// Whatever way this attempt unwinds — clean stop, error return, or a
	// panic on its way to the supervisor — return the block a panicking
	// AddBlock was holding and discard the queue: zero goroutine/block leaks
	// on every path.
	var held *trace.Block
	defer func() {
		if held != nil {
			trace.PutBlock(held)
		}
		discard()
	}()

	var at Cursor // the source position of the block being measured
	p.onClose = func(opened int) error {
		return l.checkpoint(p, Cursor{Epoch: at.Epoch, Packets: at.Packets + int64(opened)})
	}
	cut := false
	for it := range ch {
		if ctx.Err() != nil {
			// Cancelled: stop at this block boundary. The queue may hold
			// thousands of packets; they go back unmeasured, and the next
			// run re-ingests them from the last checkpoint.
			trace.PutBlock(it.blk)
			cut = true
			break
		}
		held = it.blk
		at = Cursor{Epoch: it.epoch, Packets: it.pos}
		err := p.AddBlock(it.blk)
		n := it.blk.Len()
		held = nil
		trace.PutBlock(it.blk)
		if err != nil {
			return err
		}
		l.blocks.Add(1)
		l.packets.Add(int64(n))
	}
	discard()
	if cut && prodErr == nil {
		// The source ended while the queue still held blocks.
		prodErr = fmt.Errorf("service: link %q ingest: %w", l.cfg.Name, ctx.Err())
	}

	// The producer stopped. A clean end (source exhausted) or a
	// cancellation drains: flush the partial interval and report the stop
	// as clean. Only the exhausted source checkpoints its end, so a re-run
	// emits nothing; a cancelled run resumes at the last boundary.
	if Classify(prodErr) != Canceled {
		return prodErr
	}
	if err := p.Drain(); err != nil && Classify(err) != Canceled {
		return err
	}
	if prodErr == nil {
		return l.checkpoint(p, end)
	}
	return prodErr
}
