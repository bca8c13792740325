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
// checkpoint), instead of regenerating the whole trace prefix — the
// difference between O(prefix) and O(window) for deep-offset replay into a
// multi-hour trace.
//
// Building the index runs phase 1 once (a few RNG draws per flow, no packet
// work) and holds every program in memory (64 bytes per flow), which is
// what buys the O(1) jump: replay never re-runs the RNG. For the multi-hour
// end of the Table I suite that is tens of MB — far below one materialised
// analysis interval — but it is a per-trace cost, so share one Checkpoints
// across windows of the same trace.
//
// No experiment or daemon path replays windows: Checkpoints, Window and
// Record are kept for perfbench's reference-window probe and go with it.
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

// boundary returns checkpoint j's position on the generator clock — the
// single expression every boundary comparison goes through.
func (c *Checkpoints) boundary(j int) float64 {
	return c.cfg.Warmup + float64(j)*c.every
}

// Every returns the checkpoint spacing in seconds.
func (c *Checkpoints) Every() float64 { return c.every }

// Flows returns the number of indexed flow programs.
func (c *Checkpoints) Flows() int { return len(c.progs) }

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
	// exact membership test. The widened upper bound is capped at the
	// horizon (serial truncation: no packet reaches it), so every packet the
	// player emits precedes the horizon.
	loScan := c.cfg.Warmup + lo
	loScan = math.Nextafter(math.Nextafter(loScan, math.Inf(-1)), math.Inf(-1))
	hiScan := min(math.Nextafter(math.Nextafter(warmup+hi, math.Inf(1)), math.Inf(1)), horizon)
	nb := len(c.active)
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
	first := sort.Search(len(c.progs), func(i int) bool { return c.progs[i].Start >= bAbs })
	end := first + sort.Search(len(c.progs)-first, func(i int) bool { return c.progs[first+i].Start >= hiScan })
	pl.initPlayer(loScan, hiScan, (end-first+len(c.active[j]))*8,
		&sliceFeed{progs: c.progs[first:end]})
	for _, idx := range c.active[j] {
		pl.admit(&c.progs[idx])
	}

	// Rebasing by warmup yields each packet's trace-relative time, the
	// serial record time bit for bit; the membership test applies the
	// window bounds to it.
	blk := GetBlock()
	defer PutBlock(blk)
	for more := true; more; {
		blk.Reset()
		more = pl.fill(blk, warmup)
		for i, rel := range blk.Times {
			if rel < lo || rel >= hi {
				continue
			}
			if !yield(Record{Time: rel - lo, Hdr: netpkt.HeaderFromPacked(blk.Srcs[i], blk.Dsts[i], blk.Sizes[i])}) {
				return false
			}
		}
	}
	return true
}
