package service

import (
	"context"
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/trace/store"
)

// Cursor is an exact ingest position: the epoch (one bounded replay/
// generation pass of the source) and the count of packets already consumed
// within it. Resuming from a cursor skips exactly that many packets, so a
// restored pipeline's series continues bit-identically on a deterministic
// source — no float-time ambiguity at timestamp ties.
type Cursor struct {
	Epoch   int64
	Packets int64
}

// BlockSource is an unbounded packet stream delivered as SoA blocks with
// absolute stream times. Stream replays from cur onward, calling fn with
// each block's epoch; blocks are borrowed — valid only during the call.
// Stream returns when the source is exhausted (bounded sources), on fn's
// error, or on ctx cancellation (a wrapped context error).
type BlockSource interface {
	Stream(ctx context.Context, cur Cursor, fn func(epoch int64, blk *trace.Block) error) error
}

// SyntheticSource generates an unbounded synthetic packet stream by
// concatenating epochs of the base trace configuration: epoch e runs the
// generator with seed Base.Seed + e and shifts its times by e·Duration, so
// the stream is deterministic, resumable at any cursor, and nonstationary
// when Mutate reshapes the per-epoch config (churn, load swings).
type SyntheticSource struct {
	// Base is the per-epoch generator config; Duration > 0 is the epoch
	// length. Seed and Duration must not be changed by Mutate.
	Base trace.Config
	// Epochs bounds the stream (0 = unbounded).
	Epochs int64
	// GenWorkers is the per-epoch synthesis parallelism (<= 1 = serial).
	GenWorkers int
	// Mutate, when set, reshapes epoch e's config (rate swings, size
	// shifts) — the nonstationarity knob. It must keep Seed and Duration.
	Mutate func(epoch int64, cfg *trace.Config)
}

// Stream implements BlockSource.
func (s *SyntheticSource) Stream(ctx context.Context, cur Cursor, fn func(int64, *trace.Block) error) error {
	if !(s.Base.Duration > 0) || math.IsInf(s.Base.Duration, 1) {
		return MarkPermanent(fmt.Errorf("service: synthetic source needs a finite positive epoch duration, got %g", s.Base.Duration))
	}
	for epoch := cur.Epoch; s.Epochs == 0 || epoch < s.Epochs; epoch++ {
		cfg := s.Base
		cfg.Seed = s.Base.Seed + epoch
		if s.Mutate != nil {
			s.Mutate(epoch, &cfg)
			if cfg.Seed != s.Base.Seed+epoch || cfg.Duration != s.Base.Duration {
				return MarkPermanent(fmt.Errorf("service: Mutate changed the epoch seed or duration"))
			}
		}
		skip := int64(0)
		if epoch == cur.Epoch {
			skip = cur.Packets
		}
		offset := float64(epoch) * s.Base.Duration
		var seen int64
		_, err := trace.StreamParallelBlocksCtx(ctx, cfg, s.GenWorkers, func(blk *trace.Block) error {
			n := int64(blk.Len())
			if seen+n <= skip {
				seen += n
				return nil
			}
			lo := 0
			if seen < skip {
				lo = int(skip - seen)
			}
			seen += n
			sub := blk.Slice(lo, blk.Len())
			// Shift into absolute stream time. The stream's blocks are
			// recycled after this call returns, so in-place mutation is safe.
			for i := range sub.Times {
				sub.Times[i] += offset
			}
			return fn(epoch, &sub)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReplaySource loops a stored packet trace: epoch e replays the store's
// packets with times shifted by e·Duration. The trace never lives in memory
// — the reader serves one segment at a time (pages of the file mapping on
// the zero-copy path), so flowd replays traces far larger than its memory
// at O(segment) resident cost, with exact Cursor resume.
type ReplaySource struct {
	// Reader is the opened trace store (required). The source borrows it;
	// the caller owns Close.
	Reader *store.Reader
	// Duration is the epoch length in seconds (≥ the last packet's time;
	// 0 = the store's recorded trace duration).
	Duration float64
	// Epochs bounds the stream (0 = unbounded).
	Epochs int64
}

// Stream implements BlockSource.
func (s *ReplaySource) Stream(ctx context.Context, cur Cursor, fn func(int64, *trace.Block) error) error {
	if s.Reader == nil {
		return MarkPermanent(fmt.Errorf("service: replay source has no store reader"))
	}
	total := s.Reader.Packets()
	if total == 0 {
		return MarkPermanent(fmt.Errorf("service: replay source has no records"))
	}
	dur := s.Duration
	if dur == 0 {
		dur = s.Reader.Meta().Duration
	}
	if !(dur > 0) || s.Reader.LastTime() > dur {
		return MarkPermanent(fmt.Errorf("service: replay duration %g does not cover the trace (last packet at %g)",
			dur, s.Reader.LastTime()))
	}
	if cur.Packets > total {
		return MarkPermanent(fmt.Errorf("service: cursor %d packets into an epoch of %d records", cur.Packets, total))
	}
	// One pooled block is the source's whole resident state: stored blocks
	// are borrowed read-only views (possibly of the PROT_READ mapping), so
	// the epoch time shift happens during the copy the pipeline needs anyway.
	out := trace.GetBlock()
	defer trace.PutBlock(out)
	for epoch := cur.Epoch; s.Epochs == 0 || epoch < s.Epochs; epoch++ {
		start := int64(0)
		if epoch == cur.Epoch {
			start = cur.Packets
		}
		offset := float64(epoch) * dur
		err := s.Reader.Stream(ctx, start, func(blk *trace.Block) error {
			out.Reset()
			out.AppendRebased(blk, 0, blk.Len(), -offset)
			return fn(epoch, out)
		})
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("service: replay: %w", ctx.Err())
			}
			return err
		}
	}
	return nil
}
