package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/membudget"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// LinkConfig wires one link's ingest, pipeline, budget and checkpointing.
type LinkConfig struct {
	// Name labels the link in events and errors.
	Name string
	// Source is the packet stream (required).
	Source BlockSource
	// Pipeline sizes the resident measurement state.
	Pipeline PipelineConfig
	// Store persists checkpoints (nil = no checkpointing: a restart loses
	// all resident state). The link writes one at every interval close —
	// the carried state plus the cursor of the open interval's first packet
	// — and one at the end of a bounded source, so a restart re-ingests at
	// most the interval that was open.
	Store *snapshot.Store
	// Budget bounds the resident bytes of queued ingest blocks (nil =
	// unlimited). Producers block when it fills (backpressure)…
	Budget membudget.Reserver
	// …unless Shed is set, in which case blocks that do not fit are dropped
	// with exact accounting instead of stalling the source.
	Shed bool
}

// queueLen is the ingest queue depth in blocks.
const queueLen = 4

// LinkStats are a link's ingest counters, readable while it runs.
type LinkStats struct {
	Blocks      int64 // blocks measured
	Packets     int64 // packets measured
	ShedBlocks  int64 // blocks dropped under memory pressure
	ShedPackets int64 // packets dropped under memory pressure
	Checkpoints int64 // checkpoints written
	Restores    int64 // runs resumed from a checkpoint
	FreshStarts int64 // runs started without usable checkpoint state
}

// Link runs one supervised ingest-measure pipeline attempt per Run call:
// restore from the last checkpoint, stream blocks through the pipeline with
// budget-bounded queueing, checkpoint at every interval close, and on
// cancellation drain — flush the partial interval, which the next run
// re-measures from the last checkpoint. Run is the function handed to
// Supervisor.Run.
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
	if cfg.Shed && cfg.Budget == nil {
		return nil, fmt.Errorf("service: link %q sheds without a budget", cfg.Name)
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

func (l *Link) release(cost int64) {
	if l.cfg.Budget != nil {
		l.cfg.Budget.Release(cost)
	}
}

// item is one owned, budget-charged block in the ingest queue.
type item struct {
	epoch int64
	pos   int64 // packets of the epoch the source delivered before blk, shed ones included
	blk   *trace.Block
	cost  int64
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
			cost := trace.BlockCost(n)
			if l.cfg.Budget != nil {
				if l.cfg.Shed {
					if !l.cfg.Budget.TryReserve(cost) {
						// Graceful degradation: drop the block with exact
						// accounting instead of stalling the source.
						l.shedBlocks.Add(1)
						l.shedPackets.Add(int64(n))
						return nil
					}
				} else if err := l.cfg.Budget.Reserve(ictx, cost); err != nil {
					return err
				}
			}
			// Copy into an owned block: the source recycles blk after this
			// call, but the queue outlives it.
			ob := trace.GetBlock()
			ob.AppendRebased(blk, 0, n, 0)
			select {
			case ch <- item{epoch: epoch, pos: pos, blk: ob, cost: cost}:
				return nil
			case <-ictx.Done():
				trace.PutBlock(ob)
				l.release(cost)
				return fmt.Errorf("service: link %q ingest: %w", l.cfg.Name, ictx.Err())
			}
		})
	}()

	// Whatever way this attempt unwinds — clean stop, error return, or a
	// panic on its way to the supervisor — stop the producer, return every
	// queued block to the pool with its budget charge (including the one a
	// panicking AddBlock was holding), and drain ch until the producer
	// closes it: zero goroutine/block leaks on every path.
	var held *trace.Block
	var heldCost int64
	defer func() {
		icancel()
		if held != nil {
			trace.PutBlock(held)
			l.release(heldCost)
		}
		for it := range ch {
			trace.PutBlock(it.blk)
			l.release(it.cost)
		}
	}()

	for it := range ch {
		held, heldCost = it.blk, it.cost
		err := p.AddBlock(it.blk)
		n := it.blk.Len()
		held = nil
		trace.PutBlock(it.blk)
		l.release(it.cost)
		if err != nil {
			return err
		}
		if p.opened >= 0 {
			if err := l.checkpoint(p, Cursor{Epoch: it.epoch, Packets: it.pos + int64(p.opened)}); err != nil {
				return err
			}
		}
		l.blocks.Add(1)
		l.packets.Add(int64(n))
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
