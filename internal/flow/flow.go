// Package flow implements the paper's flow-measurement methodology (§III):
// packets are grouped into flows by one of two definitions — the 5-tuple or
// the destination /24 address prefix — a flow ends when no packet arrives
// for a 60 s timeout, single-packet flows are discarded (their duration
// would be zero) and their packets excluded from the measured total rate,
// and flows are split at analysis-interval boundaries.
//
// The assembler consumes packets in timestamp order (what a passive monitor
// sees) and runs in O(active flows) memory, evicting idle flows with an
// incremental expiry sweep amortised over the packet stream, so multi-hour
// traces stream through it without periodic full-table pauses.
package flow

import (
	"fmt"
	"sort"

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
	// Flows holds completed multi-packet flows, ordered by completion.
	Flows []Flow
	// Discarded lists the packets of single-packet flows; the paper
	// excludes them from the variance of the measured total rate.
	Discarded []DiscardedPacket
}

// flowState is an in-progress flow.
type flowState struct {
	start   float64
	last    float64
	bytes   int64
	packets int
	// firstBits remembers the only packet's size while packets == 1, so a
	// flow that never grows can be reported as a discarded packet.
	firstBits float64
}

// Assembler groups packets into flows under one definition. In-progress
// flow states live in a slot-recycled slab indexed by an open-addressed
// table over packed two-word keys: the per-packet path hashes its key once
// (or receives a precomputed hash column via AddBlock) and probes flat
// arrays — no generic map, no per-flow pointers, no allocation per flow;
// assembling a multi-million-flow trace costs amortised slice growth only.
type Assembler struct {
	def       Definition
	timeout   float64
	table     flowTable
	states    []flowState
	freeSlots []int32
	res       Result
	lastTime  float64
	started   bool
	// sweepDebt counts packets since the last expiry step; every sweepEvery
	// packets the assembler sweeps sweepStride table positions — the
	// incremental replacement of the old full-table periodic sweep.
	sweepDebt int
	// evict finalises one idle flow during a sweep step. Built once at
	// construction so the hot path passes a stored func value instead of
	// allocating a closure per call.
	evict func(slot int32)
}

// Incremental expiry tuning: one sweepStride-position step per sweepEvery
// packets is 2 positions of sweep work per packet amortised, which rotates
// the whole table well inside a timeout window at any realistic packet rate
// while keeping each step's latency trivially small.
const (
	sweepEvery  = 64
	sweepStride = 128
)

// NewAssembler returns a streaming assembler for one flow definition;
// timeout must be positive (use DefaultTimeout for the paper's 60 s).
func NewAssembler(def Definition, timeout float64) (*Assembler, error) {
	if _, ok := prefixDrop(def); !ok && def != By5Tuple {
		return nil, fmt.Errorf("flow: unknown definition %d", int(def))
	}
	if !(timeout > 0) {
		return nil, fmt.Errorf("flow: timeout must be > 0, got %g", timeout)
	}
	a := &Assembler{def: def, timeout: timeout}
	a.table.reset()
	a.evict = func(slot int32) {
		a.finish(&a.states[slot])
		a.freeSlots = append(a.freeSlots, slot)
	}
	return a, nil
}

// Reset returns the assembler to its fresh state, keeping table and slab
// storage — the per-interval re-arm of the measurement scheduler, which
// measures thousands of intervals without reallocating its tables.
func (a *Assembler) Reset() {
	a.table.reset()
	a.states = a.states[:0]
	a.freeSlots = a.freeSlots[:0]
	a.res = Result{}
	a.lastTime = 0
	a.started = false
	a.sweepDebt = 0
}

// alloc returns a free slab slot.
func (a *Assembler) alloc() int32 {
	if n := len(a.freeSlots); n > 0 {
		slot := a.freeSlots[n-1]
		a.freeSlots = a.freeSlots[:n-1]
		return slot
	}
	a.states = append(a.states, flowState{})
	return int32(len(a.states) - 1)
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
	pos, ok := a.table.find(h, ka, kb)
	if !ok {
		slot := a.alloc()
		pos = a.table.insert(pos, h, ka, kb, slot)
		a.states[slot] = flowState{
			start: t, last: t,
			bytes: int64(size), packets: 1,
			firstBits: float64(size) * 8,
		}
	} else {
		st := &a.states[a.table.slot[pos]]
		if t-st.last > a.timeout {
			// The previous flow on this key timed out; finalise it and start
			// a fresh flow with this packet, reusing the slot in place.
			a.finish(st)
			*st = flowState{
				start: t, last: t,
				bytes: int64(size), packets: 1,
				firstBits: float64(size) * 8,
			}
		} else {
			st.last = t
			st.bytes += int64(size)
			st.packets++
		}
	}
	a.table.last[pos] = t
	// Incremental expiry: a bounded sweep step every sweepEvery packets
	// keeps memory bounded by the genuinely active flows without the
	// latency spike of a full-table pass.
	if a.sweepDebt++; a.sweepDebt >= sweepEvery {
		a.sweepDebt = 0
		a.table.sweepExpired(t-a.timeout, sweepStride, a.evict)
	}
}

// Add consumes one packet. Packets must arrive in non-decreasing time order.
//
//repro:hotpath
func (a *Assembler) Add(rec trace.Record) error {
	if a.started && rec.Time < a.lastTime {
		return errOutOfOrder(rec.Time, a.lastTime) //repro:alloc-ok error construction on the malformed-input branch only; no allocation on the in-order path
	}
	a.started = true
	a.lastTime = rec.Time
	src, dst := rec.Hdr.Packed()
	h, ka, kb := deriveOne(a.def, src, dst)
	a.addPacked(rec.Time, rec.Hdr.TotalLen, h, ka, kb)
	return nil
}

// AddBlock consumes a block of packets with precomputed key columns (hash,
// keyA, keyB index-aligned with the block; a Measurer derives them once and
// shares the derivation across its definitions). Packets must arrive in
// non-decreasing time order across Add/AddBlock calls.
//
//repro:hotpath
func (a *Assembler) AddBlock(blk *trace.Block, hash, keyA, keyB []uint64) error {
	n := blk.Len()
	for j := 0; j < n; j++ {
		t := blk.Times[j]
		if a.started && t < a.lastTime {
			return errOutOfOrder(t, a.lastTime) //repro:alloc-ok error construction on the malformed-input branch only; no allocation on the in-order path
		}
		a.started = true
		a.lastTime = t
		a.addPacked(t, blk.Sizes[j], hash[j], keyA[j], keyB[j])
	}
	return nil
}

func (a *Assembler) finish(st *flowState) {
	if st.packets == 1 {
		a.res.Discarded = append(a.res.Discarded, DiscardedPacket{Time: st.start, Bits: st.firstBits})
		return
	}
	a.res.Flows = append(a.res.Flows, Flow{
		Start:   st.start,
		End:     st.last,
		Bytes:   st.bytes,
		Packets: st.packets,
	})
}

// ActiveFlows returns the number of in-progress flows (the N(t) of the
// M/G/∞ view, §V-A, sampled at the last packet time). Flows idle past the
// timeout but not yet swept are still counted, as before the slab rewrite.
func (a *Assembler) ActiveFlows() int { return a.table.n }

// Flush finalises all in-progress flows (end of trace or of an analysis
// interval — the paper's boundary splitting) and returns the result.
// The assembler can keep consuming packets afterwards; flows that continue
// past a flush are counted again from the flush point, exactly like the
// paper's split flows.
//
// Flows and discarded packets are returned sorted by start time (ties
// broken on end time and size): finalisation order depends on table
// eviction order (and, before the table rewrite, on Go map iteration), and
// downstream statistics must be reproducible.
func (a *Assembler) Flush() Result {
	tb := &a.table
	for i := range tb.hash {
		if tb.hash[i] == 0 {
			continue
		}
		slot := tb.slot[i]
		a.finish(&a.states[slot])
		a.freeSlots = append(a.freeSlots, slot)
	}
	tb.reset()
	out := a.res
	a.res = Result{}
	sort.Slice(out.Flows, func(i, j int) bool {
		fi, fj := out.Flows[i], out.Flows[j]
		if fi.Start != fj.Start {
			return fi.Start < fj.Start
		}
		if fi.End != fj.End {
			return fi.End < fj.End
		}
		return fi.Bytes < fj.Bytes
	})
	sort.Slice(out.Discarded, func(i, j int) bool {
		di, dj := out.Discarded[i], out.Discarded[j]
		if di.Time != dj.Time {
			return di.Time < dj.Time
		}
		return di.Bits < dj.Bits
	})
	return out
}

// Measure groups recs (time-ordered) into flows under the given definition
// with the given timeout (use DefaultTimeout for the paper's 60 s).
func Measure(recs []trace.Record, def Definition, timeout float64) (Result, error) {
	a, err := NewAssembler(def, timeout)
	if err != nil {
		return Result{}, err
	}
	for i := range recs {
		if err := a.Add(recs[i]); err != nil {
			return Result{}, err
		}
	}
	return a.Flush(), nil
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
				out[di] = append(out[di], IntervalResult{Index: clock.Index(), Start: clock.Origin(), Result: res})
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
