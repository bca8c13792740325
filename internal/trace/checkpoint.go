package trace

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/netpkt"
)

// Checkpoints is a replay index over one trace: the full phase-1 flow
// program list plus, every Every seconds, the set of flows still active at
// the checkpoint boundary. A Window attached to it replays any [lo, hi)
// sub-stream in O(window packets + flows active at the preceding
// checkpoint), instead of regenerating the whole trace prefix the way a
// plain Window must — the difference between O(prefix) and O(window) for
// deep-offset replay into a multi-hour trace.
//
// Building the index runs phase 1 once (a few RNG draws per flow, no packet
// work) and holds every program in memory (~100 bytes per flow), which is
// what buys the O(1) jump: replay never re-runs the RNG. For the multi-hour
// end of the Table I suite that is tens of MB — far below one materialised
// analysis interval — but it is a per-trace cost, so share one Checkpoints
// across windows of the same trace.
type Checkpoints struct {
	cfg   Config // defaulted
	every float64
	// progs holds every flow program of the trace, sorted by (Start, Index):
	// a window's fresh arrivals are a binary-searched contiguous run.
	progs []FlowProgram
	// active[j] indexes (into progs) the flows with Start < b_j < End at
	// checkpoint boundary b_j = Warmup + j·every: the carry-over a window
	// starting in (b_j, b_j+every] must replay in addition to the run of
	// fresh arrivals at [b_j, hi).
	active [][]int32
	// idx, when non-nil, replaces progs/active entirely: programs and
	// active lists are pulled from it on demand (the out-of-core path — a
	// store footer streams them from disk), so no program is resident
	// outside the ones a replay is actively playing.
	idx ProgramIndex
}

// ProgramIndex is an out-of-core checkpoint index: the same start-sorted
// program list and per-boundary active-flow sets a Checkpoints holds
// resident, served on demand instead — the trace store's footer implements
// it by delta-decoding programs straight off the file mapping. Boundary j
// sits at Warmup + j·Every() on the generator clock, exactly like the
// in-memory index. Implementations must be safe for concurrent use by
// independent replays.
type ProgramIndex interface {
	// Every returns the checkpoint spacing in seconds.
	Every() float64
	// Flows returns the number of indexed flow programs.
	Flows() int
	// Boundaries returns the number of checkpoint boundaries
	// (int(Duration/Every) + 1, like the in-memory index).
	Boundaries() int
	// ActiveAt appends the programs active at boundary j (those with
	// Start < b_j < End) to buf and returns the extended slice, in the
	// index's (Start, Index) program order.
	ActiveAt(j int, buf []FlowProgram) []FlowProgram
	// ProgramsFrom returns a fresh pull iterator over the programs with
	// Start >= from, in (Start, Index) order; ok is false once the list is
	// exhausted. Iterators are independent: each replay drives its own.
	ProgramsFrom(from float64) func() (p FlowProgram, ok bool)
}

// NewCheckpoints validates cfg, runs the phase-1 program pass over the whole
// trace and builds checkpoints every everySec seconds. Smaller everySec
// means less carry-over scanning per replay but more index memory.
func NewCheckpoints(cfg Config, everySec float64) (*Checkpoints, error) {
	if !(everySec > 0) {
		return nil, fmt.Errorf("trace: checkpoint spacing must be > 0, got %g", everySec)
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	progs, _, err := collectPrograms(c)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(progs, func(i, j int) bool {
		if progs[i].Start != progs[j].Start {
			return progs[i].Start < progs[j].Start
		}
		return progs[i].Index < progs[j].Index
	})
	nb := int(c.Duration/everySec) + 1
	ck := &Checkpoints{cfg: c, every: everySec, progs: progs, active: make([][]int32, nb)}
	for i, p := range progs {
		// Register the flow at every boundary it straddles: active[j] ⇔
		// boundary(j) > Start && boundary(j) < End, with boundary() the one
		// canonical float expression shared with replay so a flow landing
		// exactly on a boundary is classified identically by the builder's
		// "strictly after Start" and replay's fresh-arrival search — in
		// active[j] or in the fresh run, never both, never neither. The
		// grand total of the lists is Σ_flows ⌈D/every⌉ — linear in the
		// trace for any fixed spacing.
		jFirst := int((p.Start-c.Warmup)/everySec) + 1
		if jFirst < 0 {
			jFirst = 0
		}
		// The division is within an ulp of the truth; settle the boundary
		// cases with the canonical expression itself.
		for jFirst > 0 && ck.boundary(jFirst-1) > p.Start {
			jFirst--
		}
		for jFirst < nb && ck.boundary(jFirst) <= p.Start {
			jFirst++
		}
		for j := jFirst; j < nb && ck.boundary(j) < p.End(); j++ {
			ck.active[j] = append(ck.active[j], int32(i))
		}
	}
	return ck, nil
}

// NewCheckpointsFromIndex builds a replay index whose programs and active
// lists stream from idx instead of living resident — the footprint fix for
// multi-hour traces, where the in-memory index holds ~100 B per flow. cfg
// must be the exact configuration the indexed trace was generated with
// (replay itself is RNG-free, but the warm-up, duration and boundary
// arithmetic must agree with the builder's); windows replay bit-identically
// to NewCheckpoints over the same cfg.
func NewCheckpointsFromIndex(cfg Config, idx ProgramIndex) (*Checkpoints, error) {
	if idx == nil {
		return nil, fmt.Errorf("trace: nil program index")
	}
	if !(idx.Every() > 0) {
		return nil, fmt.Errorf("trace: checkpoint spacing must be > 0, got %g", idx.Every())
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if nb := int(c.Duration/idx.Every()) + 1; idx.Boundaries() != nb {
		return nil, fmt.Errorf("trace: index has %d boundaries, config needs %d", idx.Boundaries(), nb)
	}
	return &Checkpoints{cfg: c, every: idx.Every(), idx: idx}, nil
}

// boundary returns checkpoint j's position on the generator clock — the
// single expression every boundary comparison goes through.
func (c *Checkpoints) boundary(j int) float64 {
	return c.cfg.Warmup + float64(j)*c.every
}

// Every returns the checkpoint spacing in seconds.
func (c *Checkpoints) Every() float64 { return c.every }

// Flows returns the number of indexed flow programs.
func (c *Checkpoints) Flows() int {
	if c.idx != nil {
		return c.idx.Flows()
	}
	return len(c.progs)
}

// Window returns a replayable window over [lo, hi) of the trace that
// regenerates its packets from the nearest checkpoint at or before lo.
// The records are bit-identical to the serial stream's packets in [lo, hi),
// rebased to lo.
func (c *Checkpoints) Window(lo, hi float64) (Window, error) {
	if lo < 0 || !(hi > lo) {
		return Window{}, fmt.Errorf("trace: window bounds must satisfy 0 <= lo < hi, got [%g, %g)", lo, hi)
	}
	return Window{Lo: lo, Hi: hi, ck: c}, nil
}

// replay yields the window's packets from the checkpoint index: carry-over
// flows from the checkpoint at or before lo plus the binary-searched run of
// fresh arrivals in [b_j, hi), each fast-forwarded in O(1) to its first
// packet at or after lo. Emission order is (time, flow admission index),
// identical to the serial stream's; times are rebased to lo. Returns
// false when the consumer stopped early.
func (c *Checkpoints) replay(lo, hi float64, yield func(Record) bool) bool {
	warmup := c.cfg.Warmup
	horizon := warmup + c.cfg.Duration
	// A packet at generator-clock time t is in the window iff its
	// trace-relative time (t - warmup, the exact expression the serial path
	// rebases with) lies in [lo, hi) and t precedes the horizon. The scan
	// bounds below locate candidates on the absolute clock; warmup+lo and
	// (t-warmup) >= lo can disagree by an ulp when the sum rounds, so the
	// scan is widened by two ulps each way and each packet is settled by the
	// exact membership test.
	loScan := c.cfg.Warmup + lo
	loScan = math.Nextafter(math.Nextafter(loScan, math.Inf(-1)), math.Inf(-1))
	hiScan := warmup + hi
	if hiScan > horizon {
		hiScan = horizon // serial truncation: no packet reaches the horizon
	} else {
		hiScan = math.Nextafter(math.Nextafter(hiScan, math.Inf(1)), math.Inf(1))
	}
	nb := len(c.active)
	if c.idx != nil {
		nb = c.idx.Boundaries()
	}
	j := int(lo / c.every)
	if j >= nb {
		j = nb - 1
	}
	// The checkpoint must sit at or before every candidate packet; float
	// division can overshoot by one when lo lands on a boundary.
	for j > 0 && c.boundary(j) > loScan {
		j--
	}
	bAbs := c.boundary(j)

	// Carry-over flows are active at the checkpoint already, so they admit
	// eagerly; the fresh-arrival run — Start ∈ [b_j, hiScan), located by
	// binary search in the start-sorted index (flows starting in (b_j, lo)
	// postdate the checkpoint and belong to this run, not to active[j]) —
	// admits lazily inside the player as replay reaches each start.
	var pl player
	if c.idx != nil {
		// Out-of-core: carry-over programs are materialised just for this
		// replay, and fresh arrivals pull from the index on demand — the
		// resident footprint is O(active flows + one decode buffer), never
		// O(trace flows).
		carry := c.idx.ActiveAt(j, nil)
		next := c.idx.ProgramsFrom(bAbs)
		feed := &pullFeed{next: func() (FlowProgram, bool) {
			p, ok := next()
			if !ok || p.Start >= hiScan {
				return FlowProgram{}, false
			}
			return p, true
		}}
		pl.initPlayer(loScan, hiScan, estimateEvents(hi-lo, c.cfg.Lambda)+len(carry)*8, feed)
		for i := range carry {
			pl.admit(&carry[i])
		}
	} else {
		first := sort.Search(len(c.progs), func(i int) bool { return c.progs[i].Start >= bAbs })
		end := first + sort.Search(len(c.progs)-first, func(i int) bool { return c.progs[first+i].Start >= hiScan })
		pl.initPlayer(loScan, hiScan, (end-first+len(c.active[j]))*8,
			&sliceFeed{progs: c.progs[first:end]})
		for _, idx := range c.active[j] {
			pl.admit(&c.progs[idx])
		}
	}

	ok := true
	pl.play(func(t float64, pkt int, hdr netpkt.Header) bool {
		// Exact membership: rebase first (bit-identical to the serial
		// record time), then apply the window bounds to the rebased time.
		rel := t - warmup
		if rel < lo || rel >= hi || t >= horizon {
			return true
		}
		hdr.TotalLen = uint16(pkt)
		ok = yield(Record{Time: rel - lo, Hdr: hdr})
		return ok
	})
	return ok
}
