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

// measureByDef runs recs through the assembler of one definition.
func measureByDef(recs []trace.Record, def Definition, timeout float64) (Result, error) {
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

// Measure groups recs (time-ordered) into flows under the given definition
// with the given timeout (use DefaultTimeout for the paper's 60 s).
func Measure(recs []trace.Record, def Definition, timeout float64) (Result, error) {
	return measureByDef(recs, def, timeout)
}

// IntervalResult is the measurement of one analysis interval.
type IntervalResult struct {
	Index int
	Start float64 // interval start time within the trace
	Result
}

// MeasureIntervals divides recs into consecutive intervals of intervalSec
// and measures each independently, splitting flows at boundaries exactly as
// the paper does ("flows that belong to 30 minutes intervals are split over
// the intervals they overlap"). Flow Start/End times are relative to the
// interval start, matching the per-interval analysis of §VI.
//
// It is one pass of an IntervalClock over one Measurer: no window is copied
// and no record is visited twice. Empty intervals between packets are still
// emitted so interval indices align with wall-clock position (a dead link is
// data, not a gap).
func MeasureIntervals(recs []trace.Record, def Definition, intervalSec, timeout float64) ([]IntervalResult, error) {
	clock, err := NewIntervalClock(intervalSec)
	if err != nil {
		return nil, err
	}
	m, err := NewMeasurer([]Definition{def}, timeout)
	if err != nil {
		return nil, err
	}
	var out []IntervalResult
	closeTo := func(idx int) {
		for clock.Index() < idx {
			out = append(out, IntervalResult{Index: clock.Index(), Start: clock.Origin(), Result: m.Flush()[0]})
			clock.Advance()
			m.Reset()
		}
	}
	for _, rec := range recs {
		idx, err := clock.Place(rec.Time)
		if err != nil {
			return nil, err
		}
		closeTo(idx)
		rec.Time -= clock.Origin()
		if err := m.Add(rec); err != nil {
			return nil, err
		}
	}
	closeTo(clock.Total())
	return out, nil
}

// MeasureSpanning measures flows without boundary splitting (one assembler
// across the whole trace) and assigns each flow to the interval containing
// its start. This is the ablation counterpart of MeasureIntervals used to
// quantify the splitting artefact the paper argues is marginal (§III, §VI).
func MeasureSpanning(recs []trace.Record, def Definition, intervalSec, timeout float64) ([]IntervalResult, error) {
	if !(intervalSec > 0) {
		return nil, fmt.Errorf("flow: interval must be > 0, got %g", intervalSec)
	}
	whole, err := measureByDef(recs, def, timeout)
	if err != nil {
		return nil, err
	}
	maxIdx := 0
	if len(recs) > 0 {
		maxIdx = int(recs[len(recs)-1].Time / intervalSec)
	}
	out := make([]IntervalResult, maxIdx+1)
	for i := range out {
		out[i] = IntervalResult{Index: i, Start: float64(i) * intervalSec}
	}
	assign := func(t float64) int {
		idx := int(t / intervalSec)
		if idx < 0 {
			idx = 0
		}
		if idx > maxIdx {
			idx = maxIdx
		}
		return idx
	}
	for _, f := range whole.Flows {
		idx := assign(f.Start)
		f.Start -= out[idx].Start
		f.End -= out[idx].Start
		out[idx].Flows = append(out[idx].Flows, f)
	}
	for _, d := range whole.Discarded {
		idx := assign(d.Time)
		d.Time -= out[idx].Start
		out[idx].Discarded = append(out[idx].Discarded, d)
	}
	return out, nil
}
