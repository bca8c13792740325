package trace

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/netpkt"
)

// This file is the sharded phase 2: RNG-free packet synthesis from flow
// programs. The trace timeline is cut into segments; a serial dispatcher
// runs the phase-1 program pass, routing each program to every segment its
// flow overlaps, and seals a segment — handing it to a worker pool — once
// the arrival clock proves no later program can reach it. Workers replay a
// per-segment player (jumping each flow straight to its first in-segment
// packet in O(1) via the shot inverse), and a merger forwards the segments'
// bounded block streams in timeline order. Packets of different flows are
// ordered by (time, flow admission index), the one emission order of the
// player, so the merged stream is bit-identical to the serial stream's at
// any worker count.
//
// Packets leave synthesis packed into struct-of-arrays Blocks (times, wire
// lengths, packed header words in parallel columns): the measurement
// pipeline consumes the columns directly, and netpkt.HeaderFromPacked
// reconstructs the headers losslessly from them.

// synthSegmentBlocks bounds each in-flight segment's buffered blocks, so a
// fast worker back-pressures on the merger instead of materialising its
// segment.
const synthSegmentBlocks = 8

// minSegmentSec keeps segments from becoming so short that per-segment
// setup (program routing, queue rebuild) dominates the packet work.
const minSegmentSec = 1.0

// progSlicePool recycles the per-segment program lists between segments (a
// long trace runs thousands of segments; their routing lists would
// otherwise be the dominant allocation of a sharded generation pass).
var progSlicePool = sync.Pool{}

func getProgSlice() []FlowProgram {
	if p, _ := progSlicePool.Get().(*[]FlowProgram); p != nil {
		return (*p)[:0]
	}
	return nil
}

func putProgSlice(s []FlowProgram) {
	if cap(s) == 0 {
		return
	}
	progSlicePool.Put(&s)
}

// segment is one timeline shard of a synthesis pass. Bounds are on the
// generator clock and cover [loAbs, hiAbs) of emitted time.
type segment struct {
	loAbs, hiAbs float64
	progs        []FlowProgram
	blocks       chan *Block
	dispatched   bool // sent to the worker pool (vs closed unsynthesised on abort)
}

// synthesize replays the segment's overlapping flow programs through the
// program player and sends the packets with emission time in [loAbs, hiAbs)
// to the segment's block channel, which it closes when done. pl is the
// calling worker's reusable player (queue and arena storage persist across
// the segments a worker runs). A cancelled ctx short-circuits the work (the
// channel is still closed), since nobody will read the packets. The
// segment's program list returns to the shared pool either way. A panic
// anywhere in the replay is converted to an error through onPanic (never
// propagated past the worker boundary), which cancels ctx: the in-hand
// block returns to the pool, the channel still closes, and the merger
// reports the wrapped error instead of the process dying mid-pipeline.
func (sg *segment) synthesize(ctx context.Context, pl *player, warmup float64, onPanic func(any)) {
	// blk is the block under construction, shared with the deferred recovery
	// below so the in-hand block returns to the pool no matter where inside
	// pl.play a panic unwound from.
	var blk *Block
	defer close(sg.blocks)
	defer func() {
		putProgSlice(sg.progs)
		sg.progs = nil
	}()
	defer func() {
		if r := recover(); r != nil {
			PutBlock(blk)
			onPanic(r)
		}
	}()
	if ctx.Err() != nil {
		return
	}
	// Eager admission: the queue's (time, index) ordering does not depend
	// on admission order, and the events it holds are of the same order as
	// the segment's program list itself.
	pl.initPlayer(sg.loAbs, sg.hiAbs, len(sg.progs)*8, nil)
	for i := range sg.progs {
		pl.admit(&sg.progs[i])
	}
	blk = GetBlock()
	pl.play(func(t float64, pkt int, hdr netpkt.Header) bool {
		src, dst := hdr.Packed()
		blk.Append(t-warmup, uint16(pkt), src, dst)
		if blk.Len() == BlockSize {
			sg.blocks <- blk
			blk = GetBlock()
			return ctx.Err() == nil
		}
		return true
	})
	if blk.Len() > 0 {
		sg.blocks <- blk
	} else {
		PutBlock(blk)
	}
	blk = nil
}

// StreamParallelBlocksCtx generates cfg's trace and hands every packet to fn
// in time order, from one goroutine, packed into SoA blocks of up to
// BlockSize packets that are recycled after fn returns (fn must copy out
// anything it keeps). It is the one block producer of the package: workers
// <= 1 plays one player straight into blocks, more synthesise the packets
// with a pool of workers over timeline shards, and the packet stream is
// bit-identical at any worker count. Phase 1 (the serial RNG pass over the
// arrival process) runs concurrently with synthesis and costs a few draws
// per flow, so the speedup approaches the worker count on generation-bound
// traces. Memory stays bounded: segments hand off through an in-flight cap
// and per-segment bounded buffers, so a slow fn back-pressures generation
// just like the serial path.
//
// On fn error the stream aborts and returns the error with a running
// summary snapshot, whose Duration, AvgRateBps and FlowRate are not yet
// finalised; the failing block counts as delivered. Generation already in
// flight is drained, not delivered. When ctx is cancelled the dispatcher
// stops sealing segments, workers short-circuit their replay at the next
// block boundary, every in-flight block drains back to the pool, and the
// call returns the wrapped context error with a summary of the packets
// delivered before the cut. Worker and dispatcher panics are recovered at
// the goroutine boundary and surface the same way, as wrapped errors — the
// pipeline never dies mid-run and never leaks a pooled block or a goroutine
// on any unwind path.
func StreamParallelBlocksCtx(ctx context.Context, cfg Config, workers int, fn func(*Block) error) (Summary, error) {
	if workers <= 1 {
		return streamSerial(ctx, cfg, fn)
	}
	return streamParallelCore(ctx, cfg, workers, fn)
}

// streamSerial is StreamParallelBlocksCtx at one worker: one player over
// the emitted timeline, fed by the live phase-1 pass, packs straight into
// pooled blocks. The stream aborts between blocks when ctx is cancelled,
// exactly as an fn error would.
func streamSerial(ctx context.Context, cfg Config, fn func(*Block) error) (Summary, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Summary{}, err
	}
	src, err := newProgramSource(c)
	if err != nil {
		return Summary{}, fmt.Errorf("trace: %w", err)
	}
	horizon := c.Warmup + c.Duration
	// The player's window is the emitted part of the timeline: flows are
	// fast-forwarded past the warm-up in O(1) (closed-form shot inverse), so
	// warm-up packets cost nothing at all. Flow truncation at the horizon is
	// the window's upper bound, exactly like a capture stopping.
	var pl player
	pl.initPlayer(c.Warmup, horizon, estimateEvents(c.Duration, c.Lambda), newSourceFeed(src, horizon, &pl))
	var sum Summary
	err = pl.playBlocks(c.Warmup, func(blk *Block) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("trace: generation cancelled: %w", err)
		}
		sum.addBlock(blk)
		return fn(blk)
	})
	return sum.finish(c, src, err)
}

// addBlock counts a block delivered to the consumer.
func (s *Summary) addBlock(blk *Block) {
	s.Packets += int64(blk.Len())
	for _, n := range blk.Sizes {
		s.Bytes += int64(n)
	}
}

// finish completes a synthesis pass's summary from the packets delivered
// and the phase-1 flow counters. The derived Duration, AvgRateBps and
// FlowRate are filled only when the pass ran to the horizon (err == nil).
func (s Summary) finish(c Config, src *programSource, err error) (Summary, error) {
	s.Flows = src.flows
	s.OnePktFlows = src.onePkt
	if err != nil {
		return s, err
	}
	s.Duration = c.Duration
	s.AvgRateBps = float64(s.Bytes) * 8 / c.Duration
	s.FlowRate = float64(s.Flows) / c.Duration
	return s, nil
}

// streamParallelCore is the sharded synthesis engine. Its summary counts
// the blocks handed to fn and finishes through Summary.finish, exactly like
// the serial path.
func streamParallelCore(parent context.Context, cfg Config, workers int, fn func(*Block) error) (Summary, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Summary{}, err
	}
	src, err := newProgramSource(c)
	if err != nil {
		return Summary{}, err
	}

	// Shard the emitted timeline [Warmup, Warmup+Duration). A handful of
	// segments per worker keeps the pool balanced without shrinking segments
	// into per-segment overhead; the segmentation never changes the output,
	// only the schedule.
	segSec := c.Duration / float64(workers*4)
	if segSec < minSegmentSec {
		segSec = minSegmentSec
	}
	nSegs := int(c.Duration / segSec)
	if nSegs < 1 {
		nSegs = 1
	}
	horizon := c.Warmup + c.Duration
	segs := make([]segment, nSegs)
	for j := range segs {
		lo := c.Warmup + float64(j)*segSec
		hi := c.Warmup + float64(j+1)*segSec
		if j == nSegs-1 {
			hi = horizon
		}
		segs[j] = segment{loAbs: lo, hiAbs: hi, blocks: make(chan *Block, synthSegmentBlocks)}
	}
	// segIndex places a generator-clock time on the shard grid (clamped:
	// warm-up flows land in segment 0, which starts synthesis at Warmup).
	// The division is within an ulp of the truth; callers that care about
	// exact boundary landings settle them against the segments' own bounds.
	segIndex := func(t float64) int {
		j := int((t - c.Warmup) / segSec)
		if j < 0 {
			return 0
		}
		if j >= nSegs {
			return nSegs - 1
		}
		return j
	}

	// One context stops the run. The caller's cancellation, the first fn
	// error and the first recovered panic all cancel it: workers
	// short-circuit at their next block boundary, the dispatcher stops
	// sealing, and the merger stops delivering. The run's own causes are
	// marked as such, so a caller's cancellation is told apart from them
	// whatever cause the caller gave it.
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	stop := func(err error) { cancel(ownCause{err}) }
	recordPanic := func(r any) { stop(fmt.Errorf("trace: synthesis panicked: %v", r)) }
	// Sized to hold every segment so worker handoff never blocks on the
	// queue itself — ordering and back-pressure come from inflight and the
	// per-segment buffers (the PR-2 discipline).
	tasks := make(chan *segment, nSegs)
	// inflight caps sealed-but-unmerged segments: the dispatcher acquires
	// before sealing, the merger releases after draining, so the program
	// lists and buffers of at most workers+2 segments (plus the tails of
	// flows spanning ahead) are resident at once.
	inflight := make(chan struct{}, workers+2)

	go func() { // dispatcher: phase 1 + routing + sealing
		next := 0 // next segment to seal
		// The dispatcher runs phase-1 program code; a panic there must still
		// close the undispatched segment channels (or the merger's drain
		// loop would hang) and the task queue (or the workers would leak).
		defer func() {
			if r := recover(); r != nil {
				recordPanic(r)
			}
			for ; next < nSegs; next++ {
				if !segs[next].dispatched {
					close(segs[next].blocks)
				}
			}
			close(tasks)
		}()
		seal := func(limit int) bool {
			for next < limit {
				if ctx.Err() != nil {
					return false
				}
				sg := &segs[next]
				sg.dispatched = true
				inflight <- struct{}{}
				tasks <- sg
				next++
			}
			return true
		}
		route := func(p FlowProgram) {
			// A segment can hold packets of p iff loAbs < End and
			// hiAbs > Start (packet times lie in [Start, End)); the exact
			// bound comparisons correct the grid division's rounding.
			jF := segIndex(p.Start)
			for jF > 0 && segs[jF].loAbs > p.Start {
				jF--
			}
			for jF < nSegs-1 && segs[jF].hiAbs <= p.Start {
				jF++
			}
			jL := segIndex(p.End())
			for jL < nSegs-1 && segs[jL+1].loAbs < p.End() {
				jL++
			}
			for j := jF; j <= jL; j++ {
				if j >= next { // sealed segments are already complete
					if segs[j].progs == nil {
						segs[j].progs = getProgSlice()
					}
					segs[j].progs = append(segs[j].progs, p)
				}
			}
		}
		for src.peekArrival() < horizon {
			// Every flow of a future session starts at or after the
			// arrival clock, so segments ending at or before it are
			// complete and can ship. The exact hiAbs comparison keeps a
			// rounding overshoot of the grid division from sealing a
			// segment a flow of this very session could still reach.
			limit := segIndex(src.peekArrival())
			for limit > 0 && segs[limit-1].hiAbs > src.peekArrival() {
				limit--
			}
			if !seal(limit) {
				break
			}
			src.nextSession(horizon, route)
		}
		seal(nSegs)
		// The deferred cleanup closes what was never dispatched (abort) and
		// the task queue.
	}()

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			var pl player // reused across this worker's segments
			for sg := range tasks {
				sg.synthesize(ctx, &pl, c.Warmup, recordPanic)
			}
		}()
	}

	// Merge: forward each segment's blocks in timeline order. Every
	// channel is drained even after an error or cancellation so no worker
	// stays blocked and every block returns to the pool.
	var sum Summary
	for j := range segs {
		sg := &segs[j]
		for blk := range sg.blocks {
			if ctx.Err() == nil {
				sum.addBlock(blk)
				if err := fn(blk); err != nil {
					stop(err)
				}
			}
			PutBlock(blk)
		}
		if sg.dispatched {
			<-inflight
		}
	}
	// Every goroutine has unwound (workerWG), so the cause is final; fn
	// never saw the stopped tail, so the summary snapshot is still exact.
	workerWG.Wait()
	if ctx.Err() == nil {
		return sum.finish(c, src, nil)
	}
	if own, ok := context.Cause(ctx).(ownCause); ok {
		return sum.finish(c, src, own.err)
	}
	return sum.finish(c, src, fmt.Errorf("trace: generation cancelled: %w", parent.Err()))
}

// ownCause marks a cause a sharded synthesis run cancelled its own context
// with: the first fn error or recovered panic, returned as is.
type ownCause struct{ err error }

func (c ownCause) Error() string { return c.err.Error() }
