package service

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// The soak contract: a churny, nonstationary ingest stream — per-epoch load
// swings through Mutate — runs for minutes of stream time with every
// resident structure bounded: flow-table occupancy plateaus instead of
// growing with stream length, the prediction window stays at its cap, heap
// growth flattens after warm-up, and the run unwinds with exact live-block
// and goroutine accounting.
func TestSoakChurnyNonstationaryIngest(t *testing.T) {
	intervals := 900 // 30 minutes of stream time at 2 s intervals
	if testing.Short() {
		intervals = 15
	}
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()

	// Nonstationarity: each epoch swings the flow-arrival rate through
	// [0.5, 2)× the base — sustained load churn, deterministic per epoch.
	churn := func(epoch int64, cfg *trace.Config) {
		f := 0.5 + 1.5*float64((uint64(epoch)*2654435761)%1024)/1024
		cfg.Lambda = 40 * f
	}
	src := &SyntheticSource{Base: testBase(77), Mutate: churn} // unbounded

	store, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flowsPerInterval []int
	var next int
	var q1Heap uint64
	heapAt := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cfg := PipelineConfig{
		IntervalSec: tInterval,
		Delta:       tDelta,
		Window:      8,
		OnInterval: func(r Report) error {
			if r.Index != next {
				t.Errorf("interval %d reported after %d", r.Index, next-1)
			}
			next = r.Index + 1
			flowsPerInterval = append(flowsPerInterval, r.Flows)
			if len(flowsPerInterval) == intervals/4 {
				q1Heap = heapAt()
			}
			if len(flowsPerInterval) == intervals {
				cancel()
			}
			return nil
		},
	}
	link, err := NewLink(LinkConfig{
		Name:     "soak",
		Source:   src,
		Pipeline: cfg,
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Run(ctx); Classify(err) != Canceled {
		t.Fatalf("soak ended with %v", err)
	}
	endHeap := heapAt()

	if len(flowsPerInterval) < intervals {
		t.Fatalf("only %d of %d intervals reported", len(flowsPerInterval), intervals)
	}
	// Occupancy plateau: per-interval flow counts are bounded by the churn
	// envelope (≤ 2× base λ · interval + session carry-over), and the tail
	// of the run must not trend above the earlier plateau.
	const maxFlows = 1000
	q := len(flowsPerInterval) / 4
	maxEarly, maxLate := 0, 0
	for i, f := range flowsPerInterval {
		if f > maxFlows {
			t.Fatalf("interval %d held %d flows — occupancy is growing, not plateauing", i, f)
		}
		if i < q && f > maxEarly {
			maxEarly = f
		}
		if i >= len(flowsPerInterval)-q && f > maxLate {
			maxLate = f
		}
	}
	if maxLate > 4*maxEarly+50 {
		t.Fatalf("late occupancy %d outgrew the early plateau %d", maxLate, maxEarly)
	}
	// No monotonic series growth: the heap after the full run must sit near
	// the quarter-point level (the slack absorbs GC scheduling noise).
	if q1Heap > 0 && endHeap > q1Heap+64<<20 {
		t.Fatalf("heap grew from %d to %d bytes over the soak", q1Heap, endHeap)
	}
	st := link.Stats()
	if st.Checkpoints < 2 || st.Packets == 0 {
		t.Fatalf("soak stats: %+v", st)
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}
