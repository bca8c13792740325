package flow

import (
	"fmt"
	"math"
)

// IntervalClock places packets in analysis intervals. The paper measures
// each interval on its own and splits flows at interval boundaries (see
// MeasureIntervals), so every consumer of a packet stream — the suite's
// IntervalPartitioner, flowd's Pipeline and MeasureIntervals — advances one
// clock: it validates the stream (time order, finite non-negative times,
// the declared trace duration) and tracks which interval is being fed, so
// all of them account intervals identically.
//
// The clock only places packets; its owner advances it (Advance) once it
// has closed the current interval.
type IntervalClock struct {
	intervalSec float64
	duration    float64 // 0 = derive the trace end from the last packet
	intervals   int     // interval count implied by duration; 0 = unbounded
	cur         int     // index of the interval currently being fed
	started     bool
	lastTime    float64
}

// ClockState is an IntervalClock's resumable position, for checkpoints.
type ClockState struct {
	Cur      int
	Started  bool
	LastTime float64
}

// NewIntervalClock builds a clock over intervals of intervalSec.
func NewIntervalClock(intervalSec float64) (IntervalClock, error) {
	if !(intervalSec > 0) {
		return IntervalClock{}, fmt.Errorf("flow: interval must be > 0, got %g", intervalSec)
	}
	return IntervalClock{intervalSec: intervalSec}, nil
}

// SetDuration declares the total trace duration, before the first packet,
// so the stream accounts exactly ⌈duration/intervalSec⌉ intervals: trailing
// intervals with no packets still exist (a link that goes quiet is data, not
// a shorter trace), and packets at or beyond the duration are rejected.
func (c *IntervalClock) SetDuration(d float64) error {
	if !(d > 0) {
		return fmt.Errorf("flow: trace duration must be > 0, got %g", d)
	}
	if c.started {
		return fmt.Errorf("flow: trace duration must be declared before the first packet")
	}
	c.duration = d
	// ⌈duration/intervalSec⌉, computed once and robust to float rounding: an
	// exactly-divisible duration often divides to n ± a few ulp, and a bare
	// Ceil of n+ulp would invent a phantom (n+1)-th interval. The relative
	// shrink is far above one ulp and far below any real fractional
	// interval, so only rounding artefacts are absorbed.
	c.intervals = int(math.Ceil(d / c.intervalSec * (1 - 1e-9)))
	if c.intervals < 1 {
		c.intervals = 1
	}
	return nil
}

// valid reports whether t may follow the packets placed so far. NaN fails
// every comparison, so the non-negativity test is written to reject it.
// Beyond the declared duration the rounding sliver at the boundary itself
// is still accepted: a generator computing times as (absolute − warmup) can
// round a legitimate final packet up to exactly the duration (or an ulp
// past it), and aborting the whole stream over a float artefact would be
// wrong. Such packets fold into the final interval (see index).
func (c *IntervalClock) valid(t float64) bool {
	return t >= 0 && !math.IsInf(t, 1) &&
		!(c.started && t < c.lastTime) &&
		!(c.duration > 0 && t >= c.duration*(1+1e-9))
}

// index returns the interval of a valid time. A packet in the last
// ulp-sliver of a declared duration can divide to the interval count itself
// (t/intervalSec ≥ n); it is clamped into the final interval.
func (c *IntervalClock) index(t float64) int {
	idx := int(t / c.intervalSec)
	if c.intervals > 0 && idx >= c.intervals {
		idx = c.intervals - 1
	}
	return idx
}

// reject builds the error for a time valid refused. It lives outside the
// hot placement loop so the fmt boxing stays off its allocation budget.
func (c *IntervalClock) reject(t float64) error {
	switch {
	case math.IsNaN(t) || math.IsInf(t, 0):
		return fmt.Errorf("flow: packet time %g is not finite", t)
	case t < 0:
		// Times in (-intervalSec, 0) would otherwise truncate into interval 0
		// with a negative interval-local time, silently biasing its statistics.
		return fmt.Errorf("flow: packet time %g is negative (before the trace origin)", t)
	case c.started && t < c.lastTime:
		return errOutOfOrder(t, c.lastTime)
	default:
		return fmt.Errorf("flow: packet time %g beyond the declared trace duration %g", t, c.duration)
	}
}

// PlaceRun validates times[j:] packet by packet and returns the interval
// of times[j] and the end k of its run: times[j:k] all fall in interval
// idx, and times[k] (if any) is in a later one and not yet placed. This is
// the one boundary-splitting loop of the block consumers. On error the
// stream is aborting and the run is dropped.
//
//repro:hotpath
func (c *IntervalClock) PlaceRun(times []float64, j int) (idx, k int, err error) {
	for k = j; k < len(times); k++ {
		t := times[k]
		if !c.valid(t) {
			return 0, 0, c.reject(t)
		}
		i := c.index(t)
		if k > j && i != idx {
			break
		}
		idx = i
		c.started = true
		c.lastTime = t
	}
	return idx, k, nil
}

// Index returns the index of the interval currently being fed.
func (c *IntervalClock) Index() int { return c.cur }

// Origin returns the start time of the interval currently being fed: the
// offset that rebases its packets to interval-local time.
func (c *IntervalClock) Origin() float64 { return float64(c.cur) * c.intervalSec }

// Advance moves the clock to the next interval once the owner has closed
// the current one.
func (c *IntervalClock) Advance() { c.cur++ }

// LastTime returns the last packet time placed (0 before the first).
func (c *IntervalClock) LastTime() float64 { return c.lastTime }

// Total returns how many intervals the stream has once it is closed: every
// interval within the declared duration, or — when no duration was
// declared — through the interval containing the last packet.
func (c *IntervalClock) Total() int {
	if c.intervals > 0 {
		return c.intervals
	}
	if !c.started {
		return 0
	}
	return c.cur + 1
}

// State returns the clock's resumable position.
func (c *IntervalClock) State() ClockState {
	return ClockState{Cur: c.cur, Started: c.started, LastTime: c.lastTime}
}

// Restore moves the clock to a position State captured, keeping its
// interval geometry. A position no valid stream can reach is rejected.
func (c *IntervalClock) Restore(s ClockState) error {
	if s.Cur < 0 || !(s.LastTime >= 0) || math.IsInf(s.LastTime, 1) {
		return fmt.Errorf("flow: invalid clock state %+v", s)
	}
	c.cur, c.started, c.lastTime = s.Cur, s.Started, s.LastTime
	return nil
}
