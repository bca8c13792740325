// Package flow implements the paper's flow-measurement methodology (§III):
// packets are grouped into flows by one of two definitions — the 5-tuple or
// the destination /24 address prefix — a flow ends when no packet arrives
// for a 60 s timeout, single-packet flows are discarded (their duration
// would be zero) and their packets excluded from the measured total rate,
// and flows are split at analysis-interval boundaries.
//
// The assembler consumes packets in timestamp order (what a passive monitor
// sees). It keeps one 32-byte table entry per open flow and one record per
// flow since the last flush (plus a 4-byte destination address when a
// Measurer merges coarser definitions from it), the records it returns,
// and evicts idle flows from the table with an incremental expiry sweep
// paced by stream time: the table rotates once per half timeout, whatever
// the packet rate, so a flow idle past the timeout is gone within 1.5
// timeouts and multi-hour traces stream through without periodic
// full-table pauses.
package flow

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// DefaultTimeout is the paper's flow-termination timeout.
const DefaultTimeout = 60.0

// Definition selects how packets are grouped into flows.
type Definition int

// The flow definitions of §III, plus the /16 and /8 "routable prefix"
// extensions the paper proposes in §VI-A.
const (
	By5Tuple Definition = iota
	ByPrefix24
	ByPrefix16
	ByPrefix8
)

// String names the definition for reports.
func (d Definition) String() string {
	switch d {
	case By5Tuple:
		return "5-tuple"
	case ByPrefix24:
		return "/24 prefix"
	case ByPrefix16:
		return "/16 prefix"
	case ByPrefix8:
		return "/8 prefix"
	default:
		return fmt.Sprintf("Definition(%d)", int(d))
	}
}

// Flow is one completed flow: the quantities (T_n, S_n, D_n) of the model.
type Flow struct {
	Start   float64 // arrival time T_n of the first packet (seconds)
	End     float64 // time of the last packet
	Bytes   int64   // size in bytes
	Packets int     // packet count
}

// Duration returns D_n: the time between first and last packet.
func (f Flow) Duration() float64 { return f.End - f.Start }

// SizeBits returns S_n in bits, the unit the model uses.
func (f Flow) SizeBits() float64 { return float64(f.Bytes) * 8 }

// DiscardedPacket records a packet excluded from the measured rate because
// it formed a single-packet flow.
type DiscardedPacket struct {
	Time float64
	Bits float64
}

// Result is the output of measuring one packet sequence.
type Result struct {
	// Flows holds completed multi-packet flows, ordered by start.
	Flows []Flow
	// Discarded lists the packets of single-packet flows; the paper
	// excludes them from the variance of the measured total rate.
	Discarded []DiscardedPacket
}

// Assembler groups packets into flows under one definition. Every flow
// admitted since the last Flush or Reset is one record in a flow store,
// kept current packet by packet, and an open-addressed table over packed
// two-word keys maps each open flow's key to its record: AddBlock hashes
// each packet's key in one pass over the block's packed header columns and
// probes one flat column of entries — no generic map, no per-flow pointers,
// no allocation per flow; assembling a multi-million-flow trace costs
// amortised slice growth only. A flow's record is complete after each of
// its packets, so closing a flow (timeout, eviction, flush) finalises
// nothing.
type Assembler struct {
	am, bm  uint64 // the definition's key masks (keyMasks)
	timeout float64
	table   flowTable
	// done is the flow store: every flow admitted since the last Flush or
	// Reset, at its admission number. Packets arrive in time order, so the
	// admission number is the flow's rank by start, and Flush reads the
	// store in order. When keepAddr is set (the finest assembler of a
	// Measurer with coarser definitions), addr holds each admitted flow's
	// destination address (under a prefix definition, its prefix) at the
	// same index: the column a coarser prefix definition merges the store
	// by. res is Flush's reused output storage and hash AddBlock's key
	// hash column.
	done     []Flow
	addr     []uint32
	keepAddr bool
	res      Result
	hash     []uint64
	lastTime float64 // the last packet's time; -Inf before the first
	// sweepAt is the stream time at which the next idle-expiry step is
	// due, and idleAt the first packet time plus the timeout: no flow can
	// be idle before it, so no step runs earlier. Reset sets sweepAt to
	// -Inf, which makes the first packet arm both.
	sweepAt float64
	idleAt  float64
}

// NewAssembler returns a streaming assembler for one flow definition;
// timeout must be positive (use DefaultTimeout for the paper's 60 s).
func NewAssembler(def Definition, timeout float64) (*Assembler, error) {
	am, bm, ok := keyMasks(def)
	if !ok {
		return nil, fmt.Errorf("flow: unknown definition %d", int(def))
	}
	if !(timeout > 0) {
		return nil, fmt.Errorf("flow: timeout must be > 0, got %g", timeout)
	}
	a := &Assembler{am: am, bm: bm, timeout: timeout}
	a.Reset()
	return a, nil
}

// Reset returns the assembler to its fresh state, keeping table and store
// storage — the per-interval re-arm of the measurement scheduler, which
// measures thousands of intervals without reallocating its tables.
func (a *Assembler) Reset() {
	a.table.reset()
	a.done, a.addr = a.done[:0], a.addr[:0]
	a.lastTime = math.Inf(-1)
	a.sweepAt = math.Inf(-1)
	a.idleAt = math.Inf(1)
}

// open starts a flow with one packet of size bytes at t, keyed by second
// key word kb, in the store and returns its admission number.
func (a *Assembler) open(t float64, size uint16, kb uint64) int32 {
	a.done = append(a.done, Flow{Start: t, End: t, Bytes: int64(size), Packets: 1})
	if a.keepAddr {
		a.addr = append(a.addr, uint32(kb>>netpkt.PackedAddrShift))
	}
	return int32(len(a.done) - 1)
}

// errOutOfOrder builds the out-of-order-packet error. It lives outside the
// hot functions so the fmt boxing of its arguments stays off their
// escape-analysis budget: the caller passes plain float64s and the
// allocation happens only on the (at most once per stream) failure path.
func errOutOfOrder(t, last float64) error {
	return fmt.Errorf("flow: packet out of order: %g after %g", t, last)
}

// addPacked consumes one packet given its precomputed key triple. Time
// order was validated by the caller.
//
//repro:hotpath
func (a *Assembler) addPacked(t float64, size uint16, h, ka, kb uint64) {
	tb := &a.table
	pos, ok := tb.find(h, ka, kb)
	if !ok {
		if tb.n >= tb.grow {
			a.grow(t)
			pos, _ = tb.find(h, ka, kb)
		}
		tb.insert(pos, h, ka, kb, t, a.open(t, size, kb))
	} else if e := &tb.ent[pos]; t-e.last > a.timeout {
		// The previous flow on this key timed out, and its record is
		// complete: this packet opens a fresh flow in the same entry, under
		// a new admission number.
		e.last, e.adm = t, a.open(t, size, kb)
	} else {
		e.last = t
		f := &a.done[e.adm]
		f.End = t
		f.Bytes += int64(size)
		f.Packets++
	}
	if t >= a.sweepAt {
		a.sweep(t, false)
	}
}

// sweep runs the idle-expiry step due at stream time t, or examines the
// whole table when all is set. The table rotates once per timeout/2 of
// stream time: position j of the rotation falls due timeout/(2·size) after
// position j−1, and a step examines every position due by t. A flow last
// seen at L can be evicted from L+timeout on, and every position falls due
// once in (L+timeout, L+1.5·timeout], so by stream time L+1.5·timeout the
// flow is gone. The work is the table size per half timeout of stream
// time, whatever the packet rate, and no step runs before the first
// packet plus the timeout.
func (a *Assembler) sweep(t float64, all bool) {
	if math.IsInf(a.sweepAt, -1) { // the first packet since Reset
		a.idleAt = t + a.timeout
		a.sweepAt = a.idleAt
		return
	}
	size := len(a.table.ent)
	gap := a.timeout / 2 / float64(size)
	// The test runs in float64 before the conversion, so a stream-time gap
	// of any length (or an Inf quotient) clamps to one rotation.
	k := size
	if x := (t - a.sweepAt) / gap; !all && x < float64(size) {
		k = int(x) + 1
		a.sweepAt += float64(k) * gap
	}
	if k == size || !(a.sweepAt > t) {
		// The whole table is examined at t (or t is too coarse for the
		// schedule's spacing): the rotation starts over from t.
		a.sweepAt = max(t+gap, math.Nextafter(t, math.Inf(1)))
	}
	a.table.sweepExpired(t-a.timeout, k)
}

// grow doubles the table before an insert at stream time t would pass its
// load limit. The rehash moves entries out of rotation order, so once
// flows can be idle the doubled table is swept whole and the rotation
// starts over from t, which keeps the 1.5·timeout bound across growth.
func (a *Assembler) grow(t float64) {
	a.table.rehash()
	if t >= a.idleAt {
		a.sweep(t, true)
	}
}

// AddBlock consumes a block of packets: one pass over the block's packed
// header columns hashes every packet's key into a column, then each packet
// probes the table. Packets must arrive in non-decreasing time order
// across AddBlock calls. The block is only read, so borrowed (read-only)
// store blocks can feed it.
//
//repro:hotpath
func (a *Assembler) AddBlock(blk *trace.Block) error {
	// Time order is checked in one pass ahead of the table work; the
	// packets before an out-of-order one are still consumed.
	times, last := blk.Times, a.lastTime
	n := len(times)
	for j, t := range times {
		if t < last {
			n = j
			break
		}
		last = t
	}
	a.lastTime = last
	times = times[:n]
	sizes, srcs, dsts := blk.Sizes[:n], blk.Srcs[:n], blk.Dsts[:n]
	hash, am, bm := a.hashCol(n), a.am, a.bm //repro:alloc-ok the column grows only when a block longer than any before arrives, then is reused
	for j, s := range srcs {
		hash[j] = hashKey(s&am, dsts[j]&bm)
	}
	for j, t := range times {
		a.addPacked(t, sizes[j], hash[j], srcs[j]&am, dsts[j]&bm)
	}
	if n < blk.Len() {
		return errOutOfOrder(blk.Times[n], a.lastTime) //repro:alloc-ok error construction on the malformed-input branch only; no allocation on the in-order path
	}
	return nil
}

// hashCol returns AddBlock's hash column at length n, reusing its storage.
func (a *Assembler) hashCol(n int) []uint64 {
	if cap(a.hash) < n {
		a.hash = make([]uint64, n)
	}
	return a.hash[:n]
}

// merge admits the flows of a finer definition's store (fine, in its
// admission order, with their destination addresses) as this prefix
// definition's flows. A prefix flow is the finer flows under its prefix,
// merged wherever the gap between them is at most the timeout, so each
// record either extends its prefix's open group or, when its start is more
// than the timeout after the group's latest end, opens a new group under a
// new admission number. That splits exactly where the per-packet test
// does: a gap between consecutive packets of the prefix exceeds the
// timeout only where no finer flow spans it, and there the group's latest
// end is the very packet time the per-packet test compares with. A group
// is admitted with its earliest member, so admission order, ties and
// single-packet discards come out as per-packet assembly's.
func (a *Assembler) merge(fine []Flow, addr []uint32) {
	tb := &a.table
	for i, r := range fine {
		kb := uint64(addr[i]) << netpkt.PackedAddrShift & a.bm
		h := hashKey(0, kb)
		pos, ok := tb.find(h, 0, kb)
		if !ok {
			a.done = append(a.done, r)
			tb.insert(pos, h, 0, kb, r.End, int32(len(a.done)-1))
		} else if e := &tb.ent[pos]; r.Start-e.last > a.timeout {
			a.done = append(a.done, r)
			e.last, e.adm = r.End, int32(len(a.done)-1)
		} else {
			e.last = max(e.last, r.End)
			f := &a.done[e.adm]
			f.End = e.last
			f.Bytes += r.Bytes
			f.Packets += r.Packets
		}
	}
}

// ActiveFlows returns the number of in-progress flows (the N(t) of the
// M/G/∞ view, §V-A, sampled at the last packet time). Flows idle past the
// timeout but not yet swept are still counted, for up to 1.5 × timeout of
// stream time after their last packet.
func (a *Assembler) ActiveFlows() int { return a.table.n }

// Flush finalises all in-progress flows (end of trace or of an analysis
// interval — the paper's boundary splitting) and returns the result. The
// store's records are already complete, whether packets or a merge (a
// Measurer's coarser definitions) filled it, so Flush only empties the
// table, the store and its address column and orders the result.
// The assembler can keep consuming packets afterwards; flows that continue
// past a flush are counted again from the flush point, exactly like the
// paper's split flows.
//
// Flows and discarded packets are ordered by start time, ties broken on
// end time and size (discards on size), so downstream statistics do not
// depend on table eviction order. Packets arrive in time order, so flows
// are admitted in start order: the store holds them by admission number
// and only runs of equal start need reordering, in one insertion pass —
// linear in the flows returned unless many flows share one timestamp
// (settleTies). Entries tied on every compared field have equal S and D
// and stay in admission order; they can differ only in Packets, which no
// model sum reads (the shard encoding writes it).
//
// The returned slices are the assembler's own storage: they stay valid
// until the next Flush or Reset, so a caller that keeps them copies them.
func (a *Assembler) Flush() Result {
	a.table.reset()
	// A single-packet entry has End == Start, so the flow order ranks the
	// discards by time and size too: one pass settles both.
	if !settleTies(a.done) {
		mergeSort(a.done)
	}
	flows, disc := a.res.Flows[:0], a.res.Discarded[:0]
	for _, f := range a.done {
		if f.Packets == 1 {
			disc = append(disc, DiscardedPacket{Time: f.Start, Bits: f.SizeBits()})
		} else {
			flows = append(flows, f)
		}
	}
	a.done, a.addr = a.done[:0], a.addr[:0]
	a.res = Result{Flows: flows, Discarded: disc}
	return a.res
}

// flowBefore is Flush's order: start, then end, then size.
func flowBefore(x, y Flow) bool {
	if x.Start != y.Start {
		return x.Start < y.Start
	}
	if x.End != y.End {
		return x.End < y.End
	}
	return x.Bytes < y.Bytes
}

// settleTies insertion-sorts s by flowBefore, stably, and reports whether
// it finished. s arrives in admission order, which is start order, so an
// entry moves only within its run of equal starts and the pass is linear
// while runs are short. Runs grow long when many flows share one
// timestamp (a capture with a coarse clock): after a few moves per entry
// the pass stops and Flush finishes with mergeSort, so a flush stays
// O(n log n) at worst.
func settleTies(s []Flow) bool {
	budget := 8 * len(s)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && flowBefore(s[j], s[j-1]); j-- {
			if budget--; budget < 0 {
				return false
			}
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return true
}

// mergeSort stably sorts s by flowBefore, bottom-up through one scratch
// copy.
func mergeSort(s []Flow) {
	buf := make([]Flow, len(s))
	for w := 1; w < len(s); w *= 2 {
		for lo := 0; lo+w < len(s); lo += 2 * w {
			mid, hi := lo+w, min(lo+2*w, len(s))
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if flowBefore(s[j], s[i]) {
					buf[k] = s[j]
					j++
				} else {
					buf[k] = s[i]
					i++
				}
			}
			k += copy(buf[k:], s[i:mid])
			copy(buf[k:], s[j:hi])
			copy(s[lo:hi], buf[lo:hi])
		}
	}
}

// IntervalResult is the measurement of one analysis interval.
type IntervalResult struct {
	Index int
	Start float64 // interval start time within the trace
	Result
}

// MeasureIntervals divides the block stream feed delivers (feed calls sink
// once per block, in time order) into consecutive intervals of intervalSec
// and measures each independently under every definition in defs,
// splitting flows at boundaries exactly as the paper does ("flows that
// belong to 30 minutes intervals are split over the intervals they
// overlap"). out[di] holds the intervals under defs[di]. Flow Start/End
// times are relative to the interval start, matching the per-interval
// analysis of §VI.
//
// It is one pass of an IntervalClock over one Measurer, the loop of flowd's
// Pipeline.AddBlock: no window is copied, no packet is visited twice, and
// the borrowed blocks are only read (rebased times go to a scratch column),
// so read-only store blocks can feed it. Empty intervals between packets
// are still emitted so interval indices align with wall-clock position (a
// dead link is data, not a gap).
func MeasureIntervals(feed func(sink func(*trace.Block) error) error, defs []Definition, intervalSec, timeout float64) ([][]IntervalResult, error) {
	clock, err := NewIntervalClock(intervalSec)
	if err != nil {
		return nil, err
	}
	m, err := NewMeasurer(defs, timeout)
	if err != nil {
		return nil, err
	}
	out := make([][]IntervalResult, len(defs))
	closeTo := func(idx int) {
		for clock.Index() < idx {
			for di, res := range m.Flush() {
				kept := Result{Flows: slices.Clone(res.Flows), Discarded: slices.Clone(res.Discarded)}
				out[di] = append(out[di], IntervalResult{Index: clock.Index(), Start: clock.Origin(), Result: kept})
			}
			clock.Advance()
			m.Reset()
		}
	}
	var rebased []float64
	err = feed(func(blk *trace.Block) error {
		for j, n := 0, blk.Len(); j < n; {
			idx, k, err := clock.PlaceRun(blk.Times, j)
			if err != nil {
				return err
			}
			closeTo(idx)
			sub := blk.Slice(j, k)
			if origin := clock.Origin(); origin != 0 {
				rebased = append(rebased[:0], sub.Times...)
				for i := range rebased {
					rebased[i] -= origin
				}
				sub.Times = rebased
			}
			if err := m.AddBlock(&sub); err != nil {
				return err
			}
			j = k
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	closeTo(clock.Total())
	return out, nil
}
