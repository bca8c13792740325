package flow

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/trace"
)

// IntervalStream is one analysis interval's sub-stream of a partitioned
// packet stream, carried as SoA blocks. Packet times are rebased to the
// interval start. The stream is produced concurrently with consumption: the
// partitioner keeps sending blocks while a consumer drains Blocks, and
// closes the stream at the interval boundary.
type IntervalStream struct {
	Index  int
	Start  float64
	blocks chan *trace.Block
}

// Blocks returns the interval's packets in time order, interval-local, one
// SoA block at a time. The sequence is single-use and must be ranged to
// completion (breaking early still drains the remainder internally, so the
// producing partitioner never blocks on an abandoned stream). Blocks are
// recycled after the consumer has seen them, so a consumer must not retain
// a block or its columns past its yield (copying out values is fine).
// The drain-and-recycle guarantee holds even when the consumer panics out
// of the loop body: the in-hand block and the channel remainder are
// released on the way out, so a recovered panic leaks neither pool blocks
// nor a blocked producer.
func (is *IntervalStream) Blocks() iter.Seq[*trace.Block] {
	return func(yield func(*trace.Block) bool) {
		var cur *trace.Block
		defer func() {
			// Unwind path (panic in yield, or early break): recycle the
			// in-hand block and drain the remainder so the producer is
			// never left blocked mid-send.
			if cur != nil {
				trace.PutBlock(cur)
			}
			for b := range is.blocks {
				trace.PutBlock(b)
			}
		}()
		for blk := range is.blocks {
			cur = blk
			ok := yield(blk)
			cur = nil
			trace.PutBlock(blk)
			if !ok {
				return
			}
		}
	}
}

// IntervalPartitioner splits a time-ordered packet stream at analysis
// interval boundaries into interval-local sub-streams and hands each one to
// the handoff callback the moment the interval opens. Intervals are
// independent after the boundary split, so a scheduler can measure many of a
// trace's intervals concurrently while the (inherently serial, deterministic)
// producer keeps generating — the intra-trace sharding that takes the suite
// past one worker per trace.
//
// Intervals are accounted by an IntervalClock, exactly as MeasureIntervals
// and flowd's Pipeline account them: empty intervals between packets are
// emitted (immediately-closed streams), and with a declared duration every
// interval up to ⌈duration/intervalSec⌉ exists even if the trace goes quiet
// early. Packets travel in SoA blocks to amortise the channel
// synchronisation (and so consumers measure columns, not records), and a
// sub-stream holds at most ~buffer packets in flight, so a slow consumer
// back-pressures the producer instead of letting memory grow with the trace.
type IntervalPartitioner struct {
	clock     IntervalClock
	buffer    int // per-stream in-flight bound, in records
	blockSize int // records per emitted block
	handoff   func(*IntervalStream) error
	cur       *IntervalStream
	pend      *trace.Block // current interval's not-yet-sent block
	closed    bool

	// ctx, when set, bounds the blocking stream sends so a cancelled
	// pipeline unwinds instead of wedging on a vanished consumer. done
	// caches ctx.Done() for the send fast path.
	ctx  context.Context
	done <-chan struct{}
}

// NewIntervalPartitioner builds a partitioner over intervals of intervalSec.
// duration, when positive, declares the trace length so trailing empty
// intervals are emitted and out-of-range packets rejected (0 derives the end
// from the last packet). handoff receives each interval's stream as it opens
// and must not block indefinitely: packets only flow into a stream after its
// handoff returns.
func NewIntervalPartitioner(intervalSec, duration float64, buffer int, handoff func(*IntervalStream) error) (*IntervalPartitioner, error) {
	clock, err := NewIntervalClock(intervalSec)
	if err != nil {
		return nil, err
	}
	if duration != 0 {
		if err := clock.SetDuration(duration); err != nil {
			return nil, err
		}
	}
	if buffer <= 0 {
		return nil, fmt.Errorf("flow: partitioner buffer must be > 0, got %d", buffer)
	}
	if handoff == nil {
		return nil, fmt.Errorf("flow: partitioner needs a handoff callback")
	}
	return &IntervalPartitioner{
		clock:     clock,
		buffer:    buffer,
		blockSize: trace.BlockSize,
		handoff:   handoff,
	}, nil
}

// SetBlockSize overrides how many records each emitted block carries
// (default trace.BlockSize). The partitioned measurement is byte-identical
// at any size — the knob exists for that determinism test and for tuning.
// Must be called before the first packet.
func (p *IntervalPartitioner) SetBlockSize(n int) error {
	if n < 1 {
		return fmt.Errorf("flow: block size must be >= 1, got %d", n)
	}
	if p.cur != nil || p.closed {
		return fmt.Errorf("flow: block size must be set before the first packet")
	}
	p.blockSize = n
	return nil
}

// SetContext bounds the partitioner's blocking full-stream sends by ctx:
// once ctx is cancelled they fail with a wrapped ctx error instead of
// blocking on a consumer that may never drain.
// Must be called before the first packet.
func (p *IntervalPartitioner) SetContext(ctx context.Context) error {
	if p.cur != nil || p.closed {
		return fmt.Errorf("flow: context must be set before the first packet")
	}
	if ctx == nil {
		return fmt.Errorf("flow: nil context")
	}
	p.ctx = ctx
	p.done = ctx.Done()
	return nil
}

// open starts the stream of the clock's current interval and hands it off.
func (p *IntervalPartitioner) open() error {
	cap := p.buffer / p.blockSize
	if cap < 1 {
		cap = 1
	}
	s := &IntervalStream{
		Index:  p.clock.Index(),
		Start:  p.clock.Origin(),
		blocks: make(chan *trace.Block, cap),
	}
	p.cur = s
	return p.handoff(s)
}

// ship sends blk into the current interval's stream, honouring
// cancellation: a blocked send unblocks (recycling blk) when the
// partitioner's context is cancelled. Without a context done is nil and
// never fires, so the send just blocks. Ownership of the block transfers to
// the consumer on success.
func (p *IntervalPartitioner) ship(blk *trace.Block) error {
	select {
	case p.cur.blocks <- blk:
		return nil
	default:
	}
	select {
	case p.cur.blocks <- blk:
		return nil
	case <-p.done:
		trace.PutBlock(blk)
		return fmt.Errorf("flow: partition of interval %d cancelled: %w", p.clock.Index(), p.ctx.Err())
	}
}

// flushPend sends the current interval's pending block; the consumer owns
// the sent block, so the next one starts fresh from the pool.
func (p *IntervalPartitioner) flushPend() error {
	if p.pend != nil && p.pend.Len() > 0 {
		blk := p.pend
		p.pend = nil
		return p.ship(blk)
	}
	if p.pend != nil {
		trace.PutBlock(p.pend)
		p.pend = nil
	}
	return nil
}

// advance closes the current interval's stream and opens the next.
func (p *IntervalPartitioner) advance() error {
	err := p.flushPend()
	close(p.cur.blocks)
	if err != nil {
		// The stream is already closed; clear cur so the caller's Abort
		// does not close it twice.
		p.cur = nil
		return err
	}
	p.clock.Advance()
	return p.open()
}

// AddBlock routes a whole SoA block, splitting it at interval boundaries:
// each same-interval run is copied into the interval's pending block with
// times rebased during the copy. The passed block is not retained (the
// producer may recycle it after AddBlock returns). Packets must arrive in
// non-decreasing time order with finite non-negative times; on a
// validation error the failing run is dropped rather than forwarded (the
// stream is aborting — its current interval is torn down by Abort either
// way). AddBlock blocks when the interval's buffer is full until the
// consumer catches up.
func (p *IntervalPartitioner) AddBlock(blk *trace.Block) error {
	n := blk.Len()
	j := 0
	for j < n {
		idx, k, err := p.clock.PlaceRun(blk.Times, j)
		if err != nil {
			return err
		}
		if p.cur == nil {
			if err := p.open(); err != nil {
				return err
			}
		}
		for p.clock.Index() < idx {
			if err := p.advance(); err != nil {
				return err
			}
		}
		origin := p.clock.Origin()
		for i := j; i < k; {
			if p.pend == nil {
				p.pend = trace.GetBlock()
			}
			take := p.blockSize - p.pend.Len()
			if rem := k - i; rem < take {
				take = rem
			}
			p.pend.AppendRebased(blk, i, i+take, origin)
			i += take
			if p.pend.Len() >= p.blockSize {
				full := p.pend
				p.pend = nil
				if err := p.ship(full); err != nil {
					return err
				}
			}
		}
		j = k
	}
	return nil
}

// Close emits the remaining intervals — through the one containing the last
// packet, or through ⌈duration/intervalSec⌉ when a duration was declared
// (a partitioner with a duration and no packets still emits every interval,
// all empty). The partitioner must not be used after Close.
func (p *IntervalPartitioner) Close() error {
	if p.closed {
		return nil
	}
	total := p.clock.Total()
	if total == 0 {
		p.closed = true
		return nil
	}
	if p.cur == nil {
		if err := p.open(); err != nil {
			p.Abort()
			return err
		}
	}
	for p.clock.Index() < total-1 {
		if err := p.advance(); err != nil {
			p.Abort()
			return err
		}
	}
	err := p.flushPend()
	close(p.cur.blocks)
	p.cur = nil
	p.closed = true
	return err
}

// Abort closes the in-flight interval's stream without emitting the rest,
// releasing any consumer blocked on it (already-accepted records are still
// delivered). Use it when the producing stream fails mid-trace; consumers
// of already-handed-off streams see them end early. The partitioner must
// not be used after Abort.
func (p *IntervalPartitioner) Abort() {
	if p.closed {
		return
	}
	if p.cur != nil {
		// Best-effort delivery of the trailing partial block; under
		// cancellation ship drops it (recycled) rather than blocking on a
		// consumer that may be unwinding too.
		_ = p.flushPend()
		close(p.cur.blocks)
		p.cur = nil
	} else if p.pend != nil {
		trace.PutBlock(p.pend)
		p.pend = nil
	}
	p.closed = true
}
