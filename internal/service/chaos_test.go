package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// errInjectedIngest is the sentinel for test-injected ingest failures, so
// assertions can tell injected failures from real bugs shaken loose.
var errInjectedIngest = errors.New("chaos: injected ingest failure")

// hookSource interposes a hook before every block delivery — the crash/
// fault injection point of the chaos suite.
type hookSource struct {
	inner BlockSource
	hook  func(epoch int64, blk *trace.Block) error // may error or panic
}

func (h *hookSource) Stream(ctx context.Context, cur Cursor, fn func(int64, *trace.Block) error) error {
	return h.inner.Stream(ctx, cur, func(e int64, b *trace.Block) error {
		if err := h.hook(e, b); err != nil {
			return err
		}
		return fn(e, b)
	})
}

// goldenReports runs the stream uninterrupted through a plain pipeline.
func goldenReports(t *testing.T, seed, epochs int64) []Report {
	t.Helper()
	blocks := ownedBlocks(t, &SyntheticSource{Base: testBase(seed), Epochs: epochs})
	defer putAll(blocks)
	var reps []Report
	p, err := NewPipeline(testPipeCfg(&reps))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, p, blocks)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	return reps
}

// verifyContinuity checks the chaos contract: every golden interval ends up
// reported bit-identically to the uninterrupted run, gap-free. A restart
// resumes at the newest checkpoint's interval boundary, so an interval
// reported again after a crash (its checkpoint not yet written, or torn)
// must equal the golden report too. A shutdown drain may additionally flush
// a prefix of an interval as a Partial report — the restart re-measures
// that interval in full, so partial flushes are checked for consistency but
// don't count as coverage.
func verifyContinuity(t *testing.T, golden, got []Report) {
	t.Helper()
	seen := make(map[int]bool)
	for _, r := range got {
		if r.Index < 0 || r.Index >= len(golden) {
			t.Fatalf("report for interval %d outside the golden range", r.Index)
		}
		want := golden[r.Index]
		if r.Partial && !want.Partial {
			// A drain flushed this interval early; it must be a plausible
			// prefix of the golden interval, and full coverage must come
			// from a later re-emission.
			if r.Start != want.Start || r.Packets > want.Packets {
				t.Fatalf("interval %d: drain flush %+v is not a prefix of the golden interval %+v", r.Index, r, want)
			}
			continue
		}
		if !reflect.DeepEqual(want, r) {
			t.Fatalf("interval %d diverged from the golden run:\n got %+v\nwant %+v", r.Index, r, want)
		}
		seen[r.Index] = true
	}
	for i := range golden {
		if !seen[i] {
			t.Fatalf("interval %d was never reported in full", i)
		}
	}
}

// The core chaos contract: a supervised link hit by injected producer
// errors, producer panics and consumer panics restarts from its checkpoints
// and still reports every interval bit-identically to the uninterrupted run
// — with zero goroutine/block leaks and zero non-injected failures.
func TestChaosSupervisedRestartsKeepContinuity(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	const epochs = 3
	golden := goldenReports(t, 31, epochs)

	// Crash schedule over a cumulative block counter that keeps counting
	// across restarts, so each fault fires exactly once. The full stream is
	// ~24 blocks; restarts replay at most the interval that was open, so
	// all three points are reached before the final clean pass.
	var blocksSeen atomic.Int64
	crashes := map[int64]string{4: "error", 9: "panic", 15: "error"}
	src := &hookSource{
		inner: &SyntheticSource{Base: testBase(31), Epochs: epochs},
		hook: func(int64, *trace.Block) error {
			switch crashes[blocksSeen.Add(1)] {
			case "error":
				return errInjectedIngest
			case "panic":
				panic("chaos: injected producer panic")
			}
			return nil
		},
	}

	var mu sync.Mutex
	var reps []Report
	var consumerPanicked bool
	cfg := PipelineConfig{
		IntervalSec: tInterval,
		Delta:       tDelta,
		Window:      8,
		OnInterval: func(r Report) error {
			mu.Lock()
			reps = append(reps, r)
			n := len(reps)
			mu.Unlock()
			if n == 6 && !consumerPanicked {
				consumerPanicked = true
				panic("chaos: injected consumer panic")
			}
			return nil
		},
	}
	store, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(LinkConfig{Name: "chaos", Source: src, Pipeline: cfg, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	sup := newTestSupervisorReal(t)
	sup.OnEvent = func(ev Event) { events = append(events, ev) }
	if err := sup.Run(context.Background(), link.Run); err != nil {
		t.Fatalf("supervision ended in failure: %v", err)
	}

	// Every restart must trace back to an injected fault — no secondary
	// failures shaken loose by the unwinding.
	transients := 0
	for _, ev := range events {
		if ev.Class != Transient {
			continue
		}
		transients++
		var pe *PanicError
		if !errors.Is(ev.Err, errInjectedIngest) && !errors.As(ev.Err, &pe) {
			t.Fatalf("non-injected failure: %v", ev.Err)
		}
	}
	if want := len(crashes) + 1; transients != want {
		t.Fatalf("%d transient events, want %d (3 producer faults + 1 consumer panic)", transients, want)
	}
	st := link.Stats()
	if st.Restores == 0 {
		t.Fatal("no run ever resumed from a checkpoint")
	}
	verifyContinuity(t, golden, reps)
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// Random fault storms off the faultinject harness (stage errors + delays,
// with and without truncation) across seeds: the supervised link must never
// panic to the top, never leak, and any terminal failure must be injected
// (or the breaker giving up on injected failures) — never a secondary bug.
func TestChaosFaultStormNoNonInjectedFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fault storm in -short mode")
	}
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	for seed := int64(1); seed <= 4; seed++ {
		// Truncation faults tamper with the packet stream itself, which
		// invalidates packet-count cursors — run them without a store.
		// The checkpointing combo keeps the stream intact.
		for _, combo := range []struct {
			name  string
			trunc float64
			store bool
		}{
			{"errors+delays+checkpoints", 0, true},
			{"errors+truncation", 0.05, false},
		} {
			in, err := faultinject.New(faultinject.Config{
				Seed:      seed,
				ErrProb:   0.03,
				TruncProb: combo.trunc,
				DelayProb: 0.05,
				Delay:     100 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var store *snapshot.Store
			if combo.store {
				if store, err = snapshot.OpenStore(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			var reps []Report
			cfg := testPipeCfg(&reps)
			inner := &SyntheticSource{Base: testBase(100 + seed), Epochs: 2}
			wrapped := in.WrapBlockFnCtx(ctx, "ingest", func(blk *trace.Block) error { return nil })
			src := &hookSource{inner: inner, hook: func(_ int64, blk *trace.Block) error {
				return wrapped(blk)
			}}
			link, err := NewLink(LinkConfig{Name: combo.name, Source: src, Pipeline: cfg, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			err = sup100(t).Run(ctx, link.Run)
			if err != nil && !errors.Is(err, faultinject.ErrInjected) && !errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("seed %d %s: non-injected failure %v", seed, combo.name, err)
			}
			if err == nil && len(reps) == 0 {
				t.Fatalf("seed %d %s: clean completion with no reports", seed, combo.name)
			}
		}
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

func sup100(t *testing.T) *Supervisor {
	t.Helper()
	b, err := NewBackoff(100*time.Microsecond, time.Millisecond, 2, "storm")
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBreaker(100, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Supervisor{Name: "storm", Backoff: b, Breaker: br}
}

// newestCheckpoint returns the path of the newest checkpoint file.
func newestCheckpoint(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no checkpoint files")
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1])
}

// SIGTERM across a restart: a link cancelled mid-interval drains that
// interval as a partial report and writes no checkpoint, so a new link on
// the same store resumes at the interval's first packet and reports it in
// full — every interval bit-identical to the uninterrupted run.
func TestChaosCancelMidIntervalRestartKeepsContinuity(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	const epochs = 3
	golden := goldenReports(t, 47, epochs)
	store, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocksSeen := 0 // the producer goroutine alone counts
	var link1 *Link
	src := &hookSource{
		inner: &SyntheticSource{Base: testBase(47), Epochs: epochs},
		hook: func(int64, *trace.Block) error {
			if blocksSeen++; blocksSeen == 10 {
				// The link stops at the next block after a cancel, and the
				// queue lets the source run far ahead: wait until the link
				// has measured into the stream, so the cancel lands inside
				// an interval.
				deadline := time.Now().Add(5 * time.Second)
				for link1.Stats().Blocks < 5 {
					if time.Now().After(deadline) {
						return fmt.Errorf("the link measured %d blocks in 5 s", link1.Stats().Blocks)
					}
					time.Sleep(time.Millisecond)
				}
				cancel()
			}
			return nil
		},
	}
	var reps1 []Report
	link1, err = NewLink(LinkConfig{Name: "term", Source: src, Pipeline: testPipeCfg(&reps1), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := link1.Run(ctx); Classify(err) != Canceled {
		t.Fatalf("cancelled run ended with %v", err)
	}
	if len(reps1) == 0 || !reps1[len(reps1)-1].Partial {
		t.Fatalf("cancellation did not land inside an interval: %d reports", len(reps1))
	}

	var reps2 []Report
	link2, err := NewLink(LinkConfig{
		Name:     "restart",
		Source:   &SyntheticSource{Base: testBase(47), Epochs: epochs},
		Pipeline: testPipeCfg(&reps2),
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := link2.Stats(); st.Restores != 1 || st.FreshStarts != 0 {
		t.Fatalf("restart stats: %+v", st)
	}
	verifyContinuity(t, golden, append(append([]Report(nil), reps1...), reps2...))
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// kill -9 mid-write: a torn tail on the newest checkpoint must fall back to
// the previous generation, and the restarted link re-covers the lost window
// bit-identically — at most one interval more of re-work, zero loss.
func TestChaosTornCheckpointFallsBackOneGeneration(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	const epochs = 3
	golden := goldenReports(t, 41, epochs)
	dir := t.TempDir()
	store, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: run partway (several checkpoints), then hard-stop.
	ctx, cancel := context.WithCancel(context.Background())
	var reps1 []Report
	cfg := testPipeCfg(&reps1)
	inner := cfg.OnInterval
	cfg.OnInterval = func(r Report) error {
		if err := inner(r); err != nil {
			return err
		}
		if len(reps1) == 5 {
			cancel()
		}
		return nil
	}
	link1, err := NewLink(LinkConfig{
		Name:     "phase1",
		Source:   &SyntheticSource{Base: testBase(41), Epochs: epochs},
		Pipeline: cfg,
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link1.Run(ctx); Classify(err) != Canceled {
		t.Fatalf("phase 1 ended with %v", err)
	}
	cancel()
	if st := link1.Stats(); st.Checkpoints < 2 {
		t.Fatalf("phase 1 wrote only %d checkpoints", st.Checkpoints)
	}

	// Tear the newest checkpoint's tail — the write the crash interrupted.
	newest := newestCheckpoint(t, dir)
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh process must fall back to the previous generation
	// and finish the stream with full continuity.
	store2, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var reps2 []Report
	link2, err := NewLink(LinkConfig{
		Name:     "phase2",
		Source:   &SyntheticSource{Base: testBase(41), Epochs: epochs},
		Pipeline: testPipeCfg(&reps2),
		Store:    store2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := link2.Stats(); st.Restores != 1 || st.FreshStarts != 0 {
		t.Fatalf("phase 2 stats: %+v", st)
	}
	if reps2[0].Index > reps1[len(reps1)-1].Index+1 {
		t.Fatalf("recovery gap: phase 1 ended at interval %d, phase 2 resumed at %d",
			reps1[len(reps1)-1].Index, reps2[0].Index)
	}
	verifyContinuity(t, golden, append(append([]Report(nil), reps1...), reps2...))
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// When every checkpoint generation is destroyed, the link must degrade to a
// fresh start — full recompute, correct output, never a refusal to come up.
func TestChaosAllCheckpointsCorruptFallsBackToFreshStart(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	const epochs = 2
	golden := goldenReports(t, 43, epochs)
	dir := t.TempDir()
	store, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var reps1 []Report
	cfg := testPipeCfg(&reps1)
	inner := cfg.OnInterval
	cfg.OnInterval = func(r Report) error {
		if err := inner(r); err != nil {
			return err
		}
		if len(reps1) == 3 {
			cancel()
		}
		return nil
	}
	link1, err := NewLink(LinkConfig{
		Name:     "c1",
		Source:   &SyntheticSource{Base: testBase(43), Epochs: epochs},
		Pipeline: cfg,
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link1.Run(ctx); Classify(err) != Canceled {
		t.Fatalf("phase 1 ended with %v", err)
	}
	cancel()

	// Scribble zeros over every generation.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), make([]byte, 64), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var reps2 []Report
	link2, err := NewLink(LinkConfig{
		Name:     "c2",
		Source:   &SyntheticSource{Base: testBase(43), Epochs: epochs},
		Pipeline: testPipeCfg(&reps2),
		Store:    store2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := link2.Stats(); st.FreshStarts != 1 || st.Restores != 0 {
		t.Fatalf("phase 2 stats: %+v", st)
	}
	// A fresh start recomputes everything from interval 0.
	if !reflect.DeepEqual(reps2, golden) {
		t.Fatal("fresh-start recompute diverged from the golden run")
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}
