package trace

import (
	"slices"

	"repro/internal/netpkt"
)

// This file is the shared RNG-free event loop of phase 2: the player turns
// flow programs into packets over a window [lo, hi) of the generator clock,
// in the canonical (time, flow admission index) emission order every
// synthesis path shares. The serial block stream, the sharded segment
// workers and checkpointed window replay all drive the same player, so their
// packet streams are bit-identical by construction.
//
// Pending packets live in a bucket (calendar) queue rather than a binary
// heap: the window is cut into uniform time buckets sized for a handful of
// events each, inserts are O(1) list pushes, and a bucket is sorted once
// when the clock reaches it. The heap's ~log(active flows) comparisons per
// packet — the single largest cost of generation after the samplers were
// rewritten — become ~1, while the emission order stays the exact total
// order (time, index): every event is inserted before the drain passes its
// bucket (admission is settled at bucket entry, and a continuing flow's
// next packet never precedes the packet that scheduled it), so sorting
// bucket-locally is sorting globally.
//
// Events are 24 bytes — a time, a byte cursor and an arena slot — not the
// ~100-byte program itself: active programs live in a slot-recycled arena,
// so queue traffic never memmoves programs and the player makes no per-flow
// allocation at all (the arena high-water mark is the maximum number of
// concurrently active flows).

// pkEvent is one pending packet emission: the flow's byte cursor plus its
// program's arena slot. index duplicates the program's admission index so
// ordering never dereferences the arena.
type pkEvent struct {
	time  float64
	sentB int64
	index uint32 // FlowProgram.Index: the cross-flow tie-break
	prog  int32  // player arena slot
}

func eventLess(a, b *pkEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.index < b.index
}

// bqNode is an arena slot of the bucket queue's per-bucket lists.
type bqNode struct {
	ev   pkEvent
	next int32 // arena index of the next node + 1; 0 terminates
}

// bucketQueue is the calendar queue. Buckets hold unsorted singly-linked
// lists of events in a shared arena (freed slots are recycled, so arena
// memory is O(max concurrently pending events)); the current bucket is
// flattened into scratch and sorted when the drain reaches it. Events that
// land in the current bucket mid-drain (a flow's next packet, following the
// one just popped) binary-insert into the sorted remainder.
//
// The grid is adaptive: when the drain reaches a bucket whose chain has
// grown far past the per-bucket design load (a degenerate config, or an
// event-count estimate that was badly off), the queue rebuilds the grid
// over the undrained remainder with cells sized from the hot bucket's
// density (see refine), so clustered workloads never fall onto the
// O(chain²) insertion-sort path.
type bucketQueue struct {
	lo, hi, invW float64
	nb           int
	heads        []int32 // bucket -> arena index of list head + 1; 0 empty
	counts       []int32 // bucket -> pending list length
	nodes        []bqNode
	free         int32 // freelist head + 1; 0 empty
	cur          int   // bucket being drained; -1 before the first advance
	scratch      []pkEvent
	pos          int       // next scratch slot to pop
	spill        []pkEvent // refine's gather buffer
	splits       int       // grid rebuilds performed (observability + tests)
}

// initQueue prepares the queue over [lo, hi) sized for about estEvents
// pending emissions (a mis-estimate degrades constant factors, never
// correctness or order). Storage from a previous use of the queue is
// reused, so a worker can run many segments through one queue without
// reallocating its grid or arena.
func (q *bucketQueue) initQueue(lo, hi float64, estEvents int) {
	q.hi = hi
	nb := estEvents / 4
	if nb < 16 {
		nb = 16
	}
	if nb > 1<<17 {
		nb = 1 << 17
	}
	w := (hi - lo) / float64(nb)
	var invW float64
	if !(w > 0) {
		// Degenerate span: one bucket swallows everything; the sort still
		// fixes the order.
		nb = 1
		invW = 0
	} else {
		invW = 1 / w
	}
	q.setGrid(lo, nb, invW)
	q.nodes = q.nodes[:0]
	q.free = 0
	q.scratch = q.scratch[:0]
	q.pos = 0
	q.splits = 0
}

// setGrid installs a bucket grid over [lo, hi) and rewinds the drain to its
// start, reusing head/count storage when it is large enough.
func (q *bucketQueue) setGrid(lo float64, nb int, invW float64) {
	q.lo, q.nb, q.invW = lo, nb, invW
	if cap(q.heads) >= nb {
		q.heads = q.heads[:nb]
		clear(q.heads)
		q.counts = q.counts[:nb]
		clear(q.counts)
	} else {
		q.heads = make([]int32, nb)
		q.counts = make([]int32, nb)
	}
	q.cur = -1
}

// bucketOf places a generator-clock time on the bucket grid. The expression
// is monotone in t (one multiply, one floor), which is all ordering
// correctness needs: an event never lands in a bucket before its cause.
func (q *bucketQueue) bucketOf(t float64) int {
	b := int((t - q.lo) * q.invW)
	if b < 0 {
		return 0
	}
	if b >= q.nb {
		return q.nb - 1
	}
	return b
}

// push inserts an event. Events for buckets the drain has not reached yet
// take the O(1) list path; an event landing in the bucket being drained
// binary-inserts into the sorted remainder (rare: it requires a flow's next
// packet to follow within the same bucket width).
//
//repro:hotpath
func (q *bucketQueue) push(ev pkEvent) {
	b := q.bucketOf(ev.time)
	if b <= q.cur {
		q.insertSorted(ev)
		return
	}
	var idx int32
	if q.free != 0 {
		idx = q.free - 1
		q.free = q.nodes[idx].next
		q.nodes[idx] = bqNode{ev: ev, next: q.heads[b]}
	} else {
		idx = int32(len(q.nodes))
		q.nodes = append(q.nodes, bqNode{ev: ev, next: q.heads[b]})
	}
	q.heads[b] = idx + 1
	q.counts[b]++
}

// hotBucketEvents is the chain length past which a bucket counts as hot:
// well above the ~4 events/bucket the grid is sized for, low enough that
// the quadratic insertion-sort cost of draining an oversized bucket never
// gets past a few hundred memmoves before the grid refines.
const hotBucketEvents = 512

// refine rebuilds the grid over the undrained remainder [bucket b's start,
// hi) with cells sized from the hot bucket's density — the adaptive resize
// that keeps degenerate configurations (all events clustered in one bucket,
// or an estimate-starved grid) off the O(chain²) insertion-sort path. It
// reports false when the grid cannot be meaningfully refined (degenerate
// span, or the new width would not at least halve the old), so a cluster of
// simultaneous events stops triggering rebuilds once width bottoms out.
// Correctness never depends on it: bucketOf stays monotone on the new grid
// and every pending event is re-bucketed before the drain resumes, so the
// (time, index) emission order is unchanged.
func (q *bucketQueue) refine(b int) bool {
	if !(q.invW > 0) {
		return false
	}
	w := 1 / q.invW
	start := q.lo + float64(b)*w
	span := q.hi - start
	if !(span > 0) {
		return false
	}
	// Size the new grid from the hot bucket's density, not the average: the
	// hot bucket's width w should split into ~counts[b]/4 cells, so the new
	// width is w/(counts[b]/4) and the remaining span needs span/newW
	// buckets. (For uniformly dense events — a starved estimate rather
	// than clustering — this reduces to total-pending/4 buckets.) Clamped
	// in float space before conversion: the product can far exceed int
	// range.
	nbF := span / w * float64(q.counts[b]) / 4
	nb := 1 << 17
	if nbF < float64(nb) {
		nb = int(nbF)
	}
	if nb < 16 {
		nb = 16
	}
	newW := span / float64(nb)
	if !(newW > 0) || newW > w/2 {
		return false
	}
	// Gather every pending event (all live in buckets >= b: earlier buckets
	// are drained, and the exhausted scratch holds nothing), recycling the
	// list nodes as we go.
	q.spill = q.spill[:0]
	for i := b; i < q.nb; i++ {
		h := q.heads[i]
		for h != 0 {
			n := &q.nodes[h-1]
			q.spill = append(q.spill, n.ev)
			next := n.next
			n.next = q.free
			q.free = h
			h = next
		}
	}
	q.setGrid(start, nb, 1/newW)
	q.splits++
	for i := range q.spill {
		q.push(q.spill[i])
	}
	q.spill = q.spill[:0]
	return true
}

// insertSorted places ev into the sorted remainder scratch[pos:]. Every
// element there is strictly greater than the last popped event, and ev is
// too (a continuation's time is >= its predecessor's, with the same index),
// so ordering stays exact.
func (q *bucketQueue) insertSorted(ev pkEvent) {
	lo, hi := q.pos, len(q.scratch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(&q.scratch[mid], &ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.scratch = append(q.scratch, pkEvent{})
	copy(q.scratch[lo+1:], q.scratch[lo:])
	q.scratch[lo] = ev
}

// collect flattens bucket b's list into scratch, sorted, recycling the
// nodes. Returns false when the bucket was empty.
func (q *bucketQueue) collect(b int) bool {
	h := q.heads[b]
	if h == 0 {
		return false
	}
	q.heads[b] = 0
	q.counts[b] = 0
	q.scratch = q.scratch[:0]
	q.pos = 0
	for h != 0 {
		n := &q.nodes[h-1]
		q.scratch = append(q.scratch, n.ev)
		next := n.next
		n.next = q.free
		q.free = h
		h = next
	}
	slices.SortFunc(q.scratch, func(a, b pkEvent) int {
		if eventLess(&a, &b) {
			return -1
		}
		return 1
	})
	return true
}

// pop returns the next event of the current bucket, if any.
//
//repro:hotpath
func (q *bucketQueue) pop() (pkEvent, bool) {
	if q.pos < len(q.scratch) {
		ev := q.scratch[q.pos]
		q.pos++
		return ev, true
	}
	return pkEvent{}, false
}

// programFeed supplies flow programs in non-decreasing (Start, Index)
// order, bucket by bucket: admitThrough admits every not-yet-admitted
// program whose Start falls in bucket <= b into the player. A nil feed
// means every program was admitted eagerly up front (segment workers).
type programFeed interface {
	admitThrough(b int, pl *player)
}

// sliceFeed feeds from a Start-sorted program slice (checkpointed replay:
// the index keeps its programs sorted anyway, and lazy admission keeps
// queue memory O(concurrently active flows) over a wide window).
type sliceFeed struct {
	progs []FlowProgram
	next  int
}

func (f *sliceFeed) admitThrough(b int, pl *player) {
	for f.next < len(f.progs) && pl.q.bucketOf(f.progs[f.next].Start) <= b {
		pl.admit(&f.progs[f.next])
		f.next++
	}
}

// sourceFeed feeds from the live phase-1 pass (the serial stream). The
// arrival process guarantees every member flow of a future session starts
// at or after the arrival clock, so once the clock's bucket passes b every
// program for bucket b has been generated — and because the bucket queue
// orders events natively, a freshly generated program admits immediately,
// whatever its Start: its first-packet event lands in a bucket at or past
// the arrival bucket, always ahead of the drain. No intermediate sort
// structure is needed at all, and memory stays O(active flows).
type sourceFeed struct {
	src     *programSource
	horizon float64
	emit    func(FlowProgram) // bound once; nextSession's per-flow callback
}

func newSourceFeed(src *programSource, horizon float64, pl *player) *sourceFeed {
	f := &sourceFeed{src: src, horizon: horizon}
	f.emit = func(p FlowProgram) { pl.admit(&p) }
	return f
}

func (f *sourceFeed) admitThrough(b int, pl *player) {
	for f.src.peekArrival() < f.horizon && pl.q.bucketOf(f.src.peekArrival()) <= b {
		f.src.nextSession(f.horizon, f.emit)
	}
}

// player emits the packets of a program population with time in [lo, hi),
// in (time, index) order. Admission is lazy through the feed (or eager via
// admit before play); each admitted flow fast-forwards in O(1) to its first
// packet at or after lo via the closed-form shot inverse — packets before
// the window (a warm-up, a segment's past) are never synthesised.
type player struct {
	lo, hi float64
	q      bucketQueue
	feed   programFeed
	progs  []FlowProgram // arena of active programs, slots recycled
	free   []int32
}

// initPlayer prepares a player over [lo, hi) of the generator clock.
// estEvents sizes the bucket grid (see initQueue). A player can be
// re-initialised after draining: arena and queue storage carry over, so a
// synthesis worker replays many segments with one player and no per-segment
// allocation.
func (pl *player) initPlayer(lo, hi float64, estEvents int, feed programFeed) {
	pl.lo, pl.hi = lo, hi
	pl.feed = feed
	pl.progs = pl.progs[:0]
	pl.free = pl.free[:0]
	pl.q.initQueue(lo, hi, estEvents)
}

// putProg stores an active program in the arena.
func (pl *player) putProg(p *FlowProgram) int32 {
	if n := len(pl.free); n > 0 {
		slot := pl.free[n-1]
		pl.free = pl.free[:n-1]
		pl.progs[slot] = *p
		return slot
	}
	pl.progs = append(pl.progs, *p)
	return int32(len(pl.progs) - 1)
}

// admit fast-forwards one program to its first packet at or after lo and
// queues it; programs with no packet inside [lo, hi) are dropped without
// touching the arena.
func (pl *player) admit(p *FlowProgram) {
	k := p.FirstPacketNotBefore(pl.lo)
	if k >= p.NumPackets() {
		return
	}
	sentB := k * p.PktBytes
	if t := p.Start + p.offsetAt(sentB); t < pl.hi {
		slot := pl.putProg(p)
		pl.q.push(pkEvent{time: t, sentB: int64(sentB), index: p.Index, prog: slot})
	}
}

// advance moves the drain to the next non-empty bucket, admitting each
// bucket's programs at entry — before any of its events can pop, which is
// what pins the global emission order. A bucket found hot at entry (its
// chain exceeds hotBucketEvents) first refines the grid over the remaining
// window and rescans, so clustered workloads sort in small buckets instead
// of insertion-sorting one huge one. Returns false once every bucket is
// drained (at which point a sourceFeed has consumed its phase-1 pass to the
// horizon, finalising the flow counters).
func (pl *player) advance() bool {
	q := &pl.q
	for q.cur < q.nb-1 {
		b := q.cur + 1
		if pl.feed != nil {
			pl.feed.admitThrough(b, pl)
		}
		if int(q.counts[b]) > hotBucketEvents && q.refine(b) {
			continue // grid rebuilt over [bucket b's start, hi); rescan
		}
		q.cur = b
		if q.collect(b) {
			return true
		}
	}
	return false
}

// play drains the window, handing each packet — its generator-clock time,
// wire size and flow header — to emit in (time, index) order; emit
// returning false stops early.
//
//repro:hotpath
func (pl *player) play(emit func(t float64, pkt int, hdr netpkt.Header) bool) {
	for {
		ev, have := pl.q.pop()
		if !have {
			if !pl.advance() {
				return
			}
			continue
		}
		prog := &pl.progs[ev.prog]
		pkt := prog.PktBytes
		if rem := prog.SizeB - int(ev.sentB); rem < pkt {
			pkt = rem
		}
		hdr := prog.Hdr
		live := false
		if next := int(ev.sentB) + pkt; next < prog.SizeB {
			if nt := prog.Start + prog.offsetAt(next); nt < pl.hi {
				pl.q.push(pkEvent{time: nt, sentB: int64(next), index: ev.index, prog: ev.prog})
				live = true
			}
		}
		if !live {
			// Flow finished (or its next packet is past the window): recycle
			// its arena slot.
			pl.free = append(pl.free, ev.prog)
		}
		if !emit(ev.time, pkt, hdr) {
			return
		}
	}
}

// playBlocks drives play into one pooled block, packing each packet with
// its time rebased by -offset. The block goes to fn each time it fills and
// once more for the last partial block; fn borrows it until it returns, and
// its error stops the replay and is returned.
func (pl *player) playBlocks(offset float64, fn func(*Block) error) error {
	blk := GetBlock()
	defer PutBlock(blk)
	var err error
	pl.play(func(t float64, pkt int, hdr netpkt.Header) bool {
		src, dst := hdr.Packed()
		blk.Append(t-offset, uint16(pkt), src, dst)
		if blk.Len() < BlockSize {
			return true
		}
		err = fn(blk)
		blk.Reset()
		return err == nil
	})
	if err == nil && blk.Len() > 0 {
		err = fn(blk)
	}
	return err
}

// estimateEvents guesses the pending-emission count for a span of trace, to
// size the bucket grid (~8 packets per flow at the default mix). No
// correctness rides on it.
func estimateEvents(duration, lambda float64) int {
	return capacityEstimate(duration * lambda * 8)
}

// pullFeed adapts a pull callback supplying Start-ordered flow programs to
// the player's bucket-by-bucket admission: because the supply is ordered, a
// bucket is complete the moment the next pending program starts past it —
// the same seal invariant sourceFeed's arrival clock provides.
type pullFeed struct {
	next    func() (FlowProgram, bool)
	pending FlowProgram
	have    bool
	done    bool
}

func (f *pullFeed) admitThrough(b int, pl *player) {
	for !f.done {
		if !f.have {
			p, ok := f.next()
			if !ok {
				f.done = true
				return
			}
			f.pending, f.have = p, true
		}
		if pl.q.bucketOf(f.pending.Start) > b {
			return
		}
		pl.admit(&f.pending)
		f.have = false
	}
}

// PlayPrograms replays a lazily-supplied sequence of flow programs over
// [lo, hi) of their clock, emitting packets in the canonical (time, flow
// admission index) order with times rebased to lo. next must return
// programs in non-decreasing Start order with distinct Index values, and is
// consumed on demand — memory stays O(concurrently active flows) however
// many programs the sequence holds. estEvents sizes the bucket grid (a
// mis-estimate costs constants, never correctness: the grid refines itself
// on hot buckets). Packets travel to fn in one pooled block, handed over
// each time it fills and once more for the last partial block; fn borrows
// the block until it returns, and its error stops the replay and is
// returned. This is the face external packet generators (e.g. the §VII-C
// model-driven generator in gen) ride so they share the trace pipeline's
// player instead of materialising and sorting.
func PlayPrograms(lo, hi float64, estEvents int, next func() (FlowProgram, bool), fn func(*Block) error) error {
	var pl player
	pl.initPlayer(lo, hi, estEvents, &pullFeed{next: next})
	return pl.playBlocks(lo, fn)
}
