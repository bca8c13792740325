package flow

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
)

// bruteIntervals is the window-copy reference implementation: copy each
// interval's window, rebase it and measure it with a fresh assembler. The
// one-pass interval engine must reproduce it exactly.
func bruteIntervals(t *testing.T, recs []trace.Record, def Definition, intervalSec, timeout float64) []IntervalResult {
	t.Helper()
	var out []IntervalResult
	i := 0
	for idx := 0; i < len(recs); idx++ {
		lo := float64(idx) * intervalSec
		hi := lo + intervalSec
		j := i
		for j < len(recs) && recs[j].Time < hi {
			j++
		}
		if j == i {
			out = append(out, IntervalResult{Index: idx, Start: lo})
			continue
		}
		window := make([]trace.Record, j-i)
		copy(window, recs[i:j])
		for k := range window {
			window[k].Time -= lo
		}
		res, err := Measure(window, def, timeout)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, IntervalResult{Index: idx, Start: lo, Result: res})
		i = j
	}
	return out
}

// syntheticRecs generates a realistic record stream for interval tests.
func syntheticRecs(t *testing.T) []trace.Record {
	t.Helper()
	size, err := dist.NewBoundedPareto(1.3, 3000, 300000)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := dist.LognormalFromMoments(250e3, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := trace.GenerateAll(trace.Config{
		Duration:  40,
		Lambda:    30,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: 1},
		Seed:      21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func sameResults(a, b Result) bool {
	if len(a.Flows) != len(b.Flows) || len(a.Discarded) != len(b.Discarded) {
		return false
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			return false
		}
	}
	for i := range a.Discarded {
		if a.Discarded[i] != b.Discarded[i] {
			return false
		}
	}
	return true
}

// measureRecIntervals runs MeasureIntervals over recs, fed in full blocks,
// under the one definition def.
func measureRecIntervals(recs []trace.Record, def Definition, intervalSec float64) ([]IntervalResult, error) {
	out, err := MeasureIntervals(recordFeed(recs, trace.BlockSize), []Definition{def}, intervalSec, DefaultTimeout)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// The one-pass MeasureIntervals must agree with the window-copy reference
// for every definition, per interval, flow by flow — measuring all
// definitions in one pass, at block lengths that straddle boundaries.
func TestMeasureIntervalsMatchesBruteForce(t *testing.T) {
	recs := syntheticRecs(t)
	const intervalSec = 10.0
	defs := []Definition{By5Tuple, ByPrefix24, ByPrefix16}
	for _, blockLen := range []int{1, 17, trace.BlockSize} {
		all, err := MeasureIntervals(recordFeed(recs, blockLen), defs, intervalSec, DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		for di, def := range defs {
			want := bruteIntervals(t, recs, def, intervalSec, DefaultTimeout)
			got := all[di]
			if len(got) != len(want) {
				t.Fatalf("%s/%d: %d intervals, want %d", def, blockLen, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || got[i].Start != want[i].Start {
					t.Fatalf("%s/%d: interval %d header mismatch: %+v vs %+v",
						def, blockLen, i, got[i], want[i])
				}
				if !sameResults(got[i].Result, want[i].Result) {
					t.Fatalf("%s/%d: interval %d flows differ", def, blockLen, i)
				}
			}
		}
	}
}

// MeasureIntervals only reads the blocks it borrows: a feed's block must
// come back with its original (not interval-rebased) times.
func TestMeasureIntervalsLeavesBlocksUnwritten(t *testing.T) {
	recs := syntheticRecs(t)
	feed := func(sink func(*trace.Block) error) error {
		return recordFeed(recs, trace.BlockSize)(func(blk *trace.Block) error {
			before := append([]float64(nil), blk.Times...)
			if err := sink(blk); err != nil {
				return err
			}
			for j, tm := range blk.Times {
				if tm != before[j] {
					return fmt.Errorf("block time %d rewritten: %g -> %g", j, before[j], tm)
				}
			}
			return nil
		})
	}
	if _, err := MeasureIntervals(feed, []Definition{By5Tuple}, 10, DefaultTimeout); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureIntervalsEmptyIntervals(t *testing.T) {
	// Packets only in intervals 0 and 3: 1 and 2 must still be emitted.
	recs := []trace.Record{
		rec(0.5, 1, 1, 1000, 100),
		rec(1.0, 1, 1, 1000, 100),
		rec(31.0, 2, 2, 2000, 100),
		rec(31.5, 2, 2, 2000, 100),
	}
	out, err := measureRecIntervals(recs, By5Tuple, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d intervals, want 4", len(out))
	}
	for i, iv := range out {
		if iv.Index != i {
			t.Fatalf("interval %d has index %d", i, iv.Index)
		}
	}
	if len(out[1].Flows)+len(out[1].Discarded) != 0 || len(out[2].Flows)+len(out[2].Discarded) != 0 {
		t.Fatal("middle intervals should be empty")
	}
	if len(out[0].Flows) != 1 || len(out[3].Flows) != 1 {
		t.Fatalf("edge intervals should each hold one flow: %d, %d",
			len(out[0].Flows), len(out[3].Flows))
	}
	// Flow times are relative to their interval.
	if f := out[3].Flows[0]; f.Start != 1.0 || f.End != 1.5 {
		t.Fatalf("interval 3 flow not rebased: %+v", f)
	}
}

// A trace that goes quiet early must still account its trailing zero-rate
// intervals: they are measurements (a dead link), not gaps, and dropping
// them biases the interval accounting eq. (7) is fitted against.
func TestIntervalClockTrailingQuietIntervals(t *testing.T) {
	// 50 s declared duration, 10 s intervals, last packet at t = 12: without
	// the duration the stream ends after interval 1; with it, intervals 2-4
	// exist too.
	for _, dur := range []float64{0, 50} {
		c, err := NewIntervalClock(10)
		if err != nil {
			t.Fatal(err)
		}
		if dur > 0 {
			if err := c.SetDuration(dur); err != nil {
				t.Fatal(err)
			}
		}
		for _, tm := range []float64{0.5, 1.0, 12.0, 12.5} {
			idx, err := place(&c, tm)
			if err != nil {
				t.Fatal(err)
			}
			for c.Index() < idx {
				c.Advance()
			}
		}
		want := 2
		if dur > 0 {
			want = 5 // ⌈50/10⌉
		}
		if got := c.Total(); got != want {
			t.Fatalf("duration %g: %d intervals, want %d", dur, got, want)
		}
	}
}

// A declared duration on a clock that never sees a packet still accounts
// every interval (all empty) — the whole trace was quiet, not absent.
func TestIntervalClockDurationNoPackets(t *testing.T) {
	c, err := NewIntervalClock(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Total(); got != 0 {
		t.Fatalf("undeclared clock with no packets has %d intervals", got)
	}
	if err := c.SetDuration(25); err != nil {
		t.Fatal(err)
	}
	if got := c.Total(); got != 3 {
		t.Fatalf("got %d intervals, want 3 (⌈25/10⌉)", got)
	}
}

// Negative timestamps must be rejected: int(t/interval) truncates times in
// (-interval, 0) into interval 0 with a negative interval-local time,
// silently corrupting its rate series and flow statistics.
func TestIntervalClockRejectsNegativeTime(t *testing.T) {
	c, err := NewIntervalClock(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place(&c, -0.5); err == nil {
		t.Fatal("negative-time packet should be rejected")
	}
	if _, _, err := c.PlaceRun([]float64{1, -0.5}, 0); err == nil {
		t.Fatal("negative time inside a run should be rejected")
	}
	if _, err := measureRecIntervals([]trace.Record{rec(-0.5, 1, 1, 1000, 100)}, By5Tuple, 10); err == nil {
		t.Fatal("MeasureIntervals accepted a negative-time packet")
	}
}

func TestIntervalClockDurationValidation(t *testing.T) {
	c, err := NewIntervalClock(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetDuration(0); err == nil {
		t.Fatal("zero duration should be rejected")
	}
	if err := c.SetDuration(30); err != nil {
		t.Fatal(err)
	}
	// Packets genuinely beyond the declared duration break the interval
	// count invariant and must be rejected...
	if _, err := place(&c, 31); err == nil {
		t.Fatal("packet beyond the duration should be rejected")
	}
	// ...but the rounding sliver at the boundary itself (a generator's
	// absolute−warmup subtraction can round a final packet to exactly the
	// duration) folds into the last interval instead of aborting the trace.
	idx, err := place(&c, 30)
	if err != nil {
		t.Fatalf("boundary-sliver packet rejected: %v", err)
	}
	if idx != 2 {
		t.Fatalf("boundary-sliver packet placed in interval %d, want 2", idx)
	}
	if err := c.SetDuration(40); err == nil {
		t.Fatal("duration change after the first packet should be rejected")
	}
}

func TestIntervalClockValidation(t *testing.T) {
	if _, err := NewIntervalClock(0); err == nil {
		t.Fatal("zero interval should be rejected")
	}
	if _, err := measureRecIntervals(nil, Definition(99), 10); err == nil {
		t.Fatal("unknown definition should be rejected")
	}
	c, err := NewIntervalClock(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place(&c, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := place(&c, 4); err == nil {
		t.Fatal("out-of-order packet should be rejected")
	}
	if err := c.Restore(ClockState{Cur: -1}); err == nil {
		t.Fatal("negative interval index restored")
	}
}

// PlaceRun ends a run at the first packet of a later interval and leaves
// that packet unplaced, so the next call starts the next run with it.
func TestIntervalClockPlaceRun(t *testing.T) {
	c, err := NewIntervalClock(10)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{1, 2, 9.5, 10, 10, 35, 39}
	type run struct{ idx, k int }
	var got []run
	for j := 0; j < len(times); {
		idx, k, err := c.PlaceRun(times, j)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, run{idx, k})
		if k < len(times) && c.LastTime() != times[k-1] {
			t.Fatalf("run ending at %d placed %g", k, c.LastTime())
		}
		j = k
	}
	want := []run{{0, 3}, {1, 5}, {3, 7}}
	if len(got) != len(want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("runs %v, want %v", got, want)
		}
	}
}

// place feeds one packet time through PlaceRun and returns its interval.
func place(c *IntervalClock, t float64) (int, error) {
	idx, _, err := c.PlaceRun([]float64{t}, 0)
	return idx, err
}
