package flow

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// recordFeed packs recs into one pooled block, handing it to sink every n
// records and once more for the remainder: the block feed MeasureIntervals
// and the partitioner consume.
func recordFeed(recs []trace.Record, n int) func(sink func(*trace.Block) error) error {
	return func(sink func(*trace.Block) error) error {
		blk := trace.GetBlock()
		defer trace.PutBlock(blk)
		for i, r := range recs {
			src, dst := r.Hdr.Packed()
			blk.Append(r.Time, r.Hdr.TotalLen, src, dst)
			if blk.Len() == n || i == len(recs)-1 {
				if err := sink(blk); err != nil {
					return err
				}
				blk.Reset()
			}
		}
		return nil
	}
}

// partitionBlocks routes recs through p in blocks of n records.
func partitionBlocks(p *IntervalPartitioner, recs []trace.Record, n int) error {
	return recordFeed(recs, n)(p.AddBlock)
}

// measureStream drains one interval's stream into a measurer over defs,
// draining to the end even after an error so the producer never blocks.
func measureStream(is *IntervalStream, defs []Definition) ([]Result, error) {
	m, err := NewMeasurer(defs, DefaultTimeout)
	for blk := range is.Blocks() {
		if err == nil {
			err = m.AddBlock(blk)
		}
	}
	if err != nil {
		return nil, err
	}
	return m.Flush(), nil
}

// partitionMeasure runs recs through a partitioner in blocks of blockLen,
// measuring each interval's stream under defs in a goroutine (a stream only
// closes when the next interval opens, so the handoff must not wait on its
// own interval), and harvests the results in handoff order after Close.
func partitionMeasure(t *testing.T, recs []trace.Record, defs []Definition, intervalSec float64, blockLen int) [][]Result {
	t.Helper()
	var pending []chan []Result
	p, err := NewIntervalPartitioner(intervalSec, 0, 16, func(is *IntervalStream) error {
		res := make(chan []Result, 1)
		go func() {
			results, err := measureStream(is, defs)
			if err != nil {
				t.Error(err)
				results = make([]Result, len(defs))
			}
			res <- results
		}()
		pending = append(pending, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := partitionBlocks(p, recs, blockLen); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	out := make([][]Result, 0, len(pending))
	for _, res := range pending {
		out = append(out, <-res)
	}
	return out
}

// The partitioner must account intervals exactly like MeasureIntervals:
// same interval count, same flows, same rebased times, for a realistic
// stream fed in blocks that straddle interval boundaries.
func TestIntervalPartitionerMatchesMeasureIntervals(t *testing.T) {
	recs := syntheticRecs(t)
	const intervalSec = 10.0
	for _, def := range []Definition{By5Tuple, ByPrefix24} {
		want, err := measureRecIntervals(recs, def, intervalSec)
		if err != nil {
			t.Fatal(err)
		}
		for _, blockLen := range []int{1, 17, trace.BlockSize} {
			got := partitionMeasure(t, recs, []Definition{def}, intervalSec, blockLen)
			if len(got) != len(want) {
				t.Fatalf("%s/%d: %d intervals, want %d", def, blockLen, len(got), len(want))
			}
			for i := range want {
				if !sameResults(got[i][0], want[i].Result) {
					t.Fatalf("%s/%d: interval %d flows differ from MeasureIntervals", def, blockLen, i)
				}
			}
		}
	}
}

// One partitioned pass measured under both definitions at once must equal
// two independent single-definition passes.
func TestIntervalPartitionerMultiDefinition(t *testing.T) {
	recs := syntheticRecs(t)
	const intervalSec = 10.0
	defs := []Definition{By5Tuple, ByPrefix24}
	got := partitionMeasure(t, recs, defs, intervalSec, trace.BlockSize)
	for di, def := range defs {
		want, err := measureRecIntervals(recs, def, intervalSec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d intervals, want %d", def, len(got), len(want))
		}
		for i := range want {
			if !sameResults(got[i][di], want[i].Result) {
				t.Fatalf("%s: interval %d differs between multi- and single-def pass", def, i)
			}
		}
	}
}

// Concurrent consumers (one goroutine per interval, like the suite's
// scheduler) must see exactly the same sub-streams as serial consumption.
func TestIntervalPartitionerConcurrentConsumers(t *testing.T) {
	recs := syntheticRecs(t)
	const intervalSec = 10.0
	const duration = 40.0
	want, err := measureRecIntervals(recs, By5Tuple, intervalSec)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, len(want))
	var wg sync.WaitGroup
	p, err := NewIntervalPartitioner(intervalSec, duration, 8, func(is *IntervalStream) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := measureStream(is, []Definition{By5Tuple})
			if err != nil {
				t.Error(err)
				return
			}
			results[is.Index] = res[0]
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := partitionBlocks(p, recs, 64); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := range want {
		if !sameResults(results[i], want[i].Result) {
			t.Fatalf("interval %d differs under concurrent consumption", i)
		}
	}
}

// With a declared duration, a stream that goes quiet early still hands off
// every interval — the trailing ones as immediately-closed empty streams.
func TestIntervalPartitionerTrailingQuietIntervals(t *testing.T) {
	recs := []trace.Record{
		rec(0.5, 1, 1, 1000, 100),
		rec(1.0, 1, 1, 1000, 100),
	}
	var indices []int
	counts := make(chan [2]int, 8) // (index, records drained)
	p, err := NewIntervalPartitioner(10, 50, 4, func(is *IntervalStream) error {
		indices = append(indices, is.Index)
		go func() {
			n := 0
			for blk := range is.Blocks() {
				n += blk.Len()
			}
			counts <- [2]int{is.Index, n}
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := partitionBlocks(p, recs, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(indices) != 5 {
		t.Fatalf("handed off %d intervals, want 5 (⌈50/10⌉)", len(indices))
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("interval %d handed off as index %d", i, idx)
		}
	}
	got := map[int]int{}
	for range indices {
		c := <-counts
		got[c[0]] = c[1]
	}
	want := map[int]int{0: 2, 1: 0, 2: 0, 3: 0, 4: 0}
	for idx, n := range want {
		if got[idx] != n {
			t.Fatalf("interval %d drained %d records, want %d", idx, got[idx], n)
		}
	}
}

// Negative timestamps are rejected in partition mode too.
func TestIntervalPartitionerRejectsNegativeTime(t *testing.T) {
	p, err := NewIntervalPartitioner(10, 0, 4, func(is *IntervalStream) error {
		go func() {
			for range is.Blocks() {
			}
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := partitionBlocks(p, []trace.Record{rec(-1, 1, 1, 1000, 100)}, 1); err == nil {
		t.Fatal("negative-time packet should be rejected")
	}
	p.Abort()
}

// Abort must close the in-flight stream so a blocked consumer terminates,
// and further Close calls must be no-ops.
func TestIntervalPartitionerAbort(t *testing.T) {
	drained := make(chan int, 1)
	p, err := NewIntervalPartitioner(10, 0, 4, func(is *IntervalStream) error {
		go func() {
			n := 0
			for blk := range is.Blocks() {
				n += blk.Len()
			}
			drained <- n
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := partitionBlocks(p, []trace.Record{rec(1, 1, 1, 1000, 100)}, 1); err != nil {
		t.Fatal(err)
	}
	p.Abort()
	if n := <-drained; n != 1 {
		t.Fatalf("consumer drained %d records, want 1", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal("Close after Abort should be a no-op, got", err)
	}
}

// An exactly-divisible duration whose float ratio lands a few ulp above the
// integer (e.g. 7×0.3/0.3 = 8 under Ceil) must not invent a phantom
// interval: the count drives scheduler bookkeeping sized to the true total.
func TestIntervalClockFloatRobustTotal(t *testing.T) {
	for _, tc := range []struct {
		n   int
		ivl float64
	}{
		{7, 0.3}, {14, 0.3}, {28, 0.3}, {61, 0.3}, {79, 120}, {3, 0.1},
	} {
		c, err := NewIntervalClock(tc.ivl)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetDuration(float64(tc.n) * tc.ivl); err != nil {
			t.Fatal(err)
		}
		if _, err := place(&c, tc.ivl/2); err != nil {
			t.Fatal(err)
		}
		if count := c.Total(); count != tc.n {
			t.Fatalf("duration %d×%g emitted %d intervals, want %d", tc.n, tc.ivl, count, tc.n)
		}
	}
}

func TestIntervalPartitionerValidation(t *testing.T) {
	handoff := func(*IntervalStream) error { return nil }
	if _, err := NewIntervalPartitioner(0, 0, 4, handoff); err == nil {
		t.Fatal("zero interval should be rejected")
	}
	if _, err := NewIntervalPartitioner(10, -1, 4, handoff); err == nil {
		t.Fatal("negative duration should be rejected")
	}
	if _, err := NewIntervalPartitioner(10, 0, 0, handoff); err == nil {
		t.Fatal("zero buffer should be rejected")
	}
	if _, err := NewIntervalPartitioner(10, 0, 4, nil); err == nil {
		t.Fatal("nil handoff should be rejected")
	}
}
