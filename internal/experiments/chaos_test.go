package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/membudget"
	"repro/internal/trace"
)

// checkNoLeaks asserts the chaos run left nothing behind: every pooled
// block returned (exact, immediate) and the goroutine count settles back
// to its pre-run level (polled — workers may still be on their final
// instructions when the pass returns).
func checkNoLeaks(t *testing.T, baseBlocks int64, baseGoroutines int) {
	t.Helper()
	if got := trace.LiveBlocks(); got != baseBlocks {
		t.Fatalf("leaked %d pool blocks", got-baseBlocks)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseGoroutines {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runSuite runs the full suite-output render (Table I + Fig 9 + Fig 12)
// without failing the test on error, so chaos runs can assert on the error.
func runSuite(o Options) (string, error) {
	r, err := NewRunner(o)
	if err != nil {
		return "", err
	}
	var buf stringsBuilder
	for _, f := range []func(*Runner) error{
		func(r *Runner) error { return r.Table1(&buf) },
		func(r *Runner) error { return r.Fig9(&buf) },
		func(r *Runner) error { return r.Fig12(&buf) },
	} {
		if err := f(r); err != nil {
			return buf.String(), err
		}
	}
	return buf.String(), nil
}

// stringsBuilder is a minimal io.Writer accumulator (strings.Builder is
// fine too; this keeps the chaos file self-contained about what it writes).
type stringsBuilder struct{ b []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *stringsBuilder) String() string              { return string(s.b) }

// Zero injected faults — with the harness fully wired (block hook, memory
// budget, cancellable context) — must be byte-identical to the plain run
// at every workers/genworkers/block-size combination. Delay-only faults
// ride along in one combo: scheduler jitter must never change the science.
func TestChaosZeroFaultOutputIdenticalToGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping chaos suite in -short mode")
	}
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	golden, err := runSuite(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("golden run produced no output")
	}
	combos := []struct {
		name       string
		workers    int
		genWorkers int
		blockSize  int
		budget     int64
		delay      bool
	}{
		{"wired-sequential", 1, 0, 0, 1 << 20, false},
		{"parallel-budget", 4, 4, 17, 1 << 16, false},
		{"one-block-budget", 2, 2, 1, 1, false},
		{"delay-jitter", 4, 2, 64, 1 << 20, true},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			cfg := faultinject.Config{Seed: 99}
			if c.delay {
				cfg.DelayProb = 0.2
				cfg.Delay = 200 * time.Microsecond
			}
			in, err := faultinject.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := tinyOptions()
			o.Workers = c.workers
			o.GenWorkers = c.genWorkers
			o.blockSize = c.blockSize
			o.MemBudgetBytes = c.budget
			o.Context = context.Background()
			o.wrapBlocks = in.WrapBlockFn
			got, err := runSuite(o)
			if err != nil {
				t.Fatal(err)
			}
			if got != golden {
				t.Fatal("harness-wired run differs from golden output")
			}
		})
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// Injected stage errors must surface as wrapped errors (never a panic, so
// the suite keeps running other passes) and unwind cleanly: all blocks
// recycled, all goroutines gone.
func TestChaosInjectedErrorsUnwindCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping chaos suite in -short mode")
	}
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	for _, errAfter := range []int64{1, 2, 7} {
		for _, workers := range []int{1, 4} {
			in, err := faultinject.New(faultinject.Config{Seed: 5, ErrAfter: errAfter})
			if err != nil {
				t.Fatal(err)
			}
			o := tinyOptions()
			o.Workers = workers
			o.GenWorkers = 2
			o.wrapBlocks = in.WrapBlockFn
			_, err = runSuite(o)
			if err == nil {
				t.Fatalf("errAfter=%d workers=%d: run succeeded despite injected errors", errAfter, workers)
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("errAfter=%d workers=%d: error %v does not wrap ErrInjected", errAfter, workers, err)
			}
			if s := in.Stats(); s.Errors == 0 {
				t.Fatalf("errAfter=%d: injector recorded no errors", errAfter)
			}
		}
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// Random fault storms (errors + truncations + delays) across seeds: the
// pipeline must never panic and never leak, and any failure must be an
// injected one, not a secondary bug shaken loose by the unwinding.
func TestChaosRandomFaultStormNeverPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping chaos suite in -short mode")
	}
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	for seed := int64(1); seed <= 5; seed++ {
		in, err := faultinject.New(faultinject.Config{
			Seed:      seed,
			ErrProb:   0.02,
			TruncProb: 0.1,
			DelayProb: 0.05,
			Delay:     100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		o := tinyOptions()
		o.Workers = 4
		o.GenWorkers = 2
		o.MemBudgetBytes = 1 << 16
		o.wrapBlocks = in.WrapBlockFn
		if _, err := runSuite(o); err != nil && !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("seed %d: non-injected failure %v", seed, err)
		}
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// Cancelling the pass context mid-run must stop the pipeline with an error
// wrapping the context error — producers unwind, workers drain, nothing
// wedges or leaks.
func TestChaosCancellationMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping chaos suite in -short mode")
	}
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	for _, cancelAt := range []int64{0, 2, 20} {
		ctx, cancel := context.WithCancel(context.Background())
		var blocks atomic.Int64
		o := tinyOptions()
		o.Workers = 4
		o.GenWorkers = 2
		o.Context = ctx
		if cancelAt == 0 {
			cancel() // cancelled before the pass even starts
		} else {
			o.wrapBlocks = func(stage string, fn func(*trace.Block) error) func(*trace.Block) error {
				return func(b *trace.Block) error {
					if blocks.Add(1) == cancelAt {
						cancel()
					}
					return fn(b)
				}
			}
		}
		_, err := runSuite(o)
		cancel()
		if err == nil {
			t.Fatalf("cancelAt=%d: cancelled run reported success", cancelAt)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelAt=%d: error %v does not wrap context.Canceled", cancelAt, err)
		}
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// Load shedding with a budget that refuses every reservation: all
// record-bearing intervals must be dropped, counted exactly — per trace,
// both intervals shed, and the shed record totals must equal the packets
// the generators produced (nothing dropped silently, nothing double
// counted). The pass itself succeeds: shedding is visible degradation,
// not failure.
func TestChaosShedCountersExact(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping chaos suite in -short mode")
	}
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	in, err := faultinject.New(faultinject.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Workers = 3
	o.Shed = true
	// Every reservation refused from the first on: maximal shedding.
	o.wrapBudget = func(inner membudget.Reserver) membudget.Reserver {
		return in.WrapBudget(inner, 1)
	}
	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	// Summaries runs the measurement pass; ShedStats only reports on it.
	summaries, err := r.Summaries()
	if err != nil {
		t.Fatal(err)
	}
	shed, err := r.ShedStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(shed) != len(summaries) {
		t.Fatalf("%d shed entries for %d traces", len(shed), len(summaries))
	}
	for i, s := range shed {
		// Every interval of every trace carries records at this link rate,
		// so with all reservations refused every interval must be shed.
		if want := int64(r.Specs()[i].Intervals); s.Intervals != want {
			t.Fatalf("trace %s: %d intervals shed, want all %d", s.Trace, s.Intervals, want)
		}
		if s.Records != summaries[i].Packets {
			t.Fatalf("trace %s: %d records shed, generator produced %d", s.Trace, s.Records, summaries[i].Packets)
		}
	}
	// Every interval shed means no scatter points anywhere.
	if stats, err := r.Stats(suiteDefs[0]); err != nil {
		t.Fatal(err)
	} else if len(stats) != 0 {
		t.Fatalf("%d scatter points survived a fully-shed pass", len(stats))
	}
	if fails := in.Stats().AllocFailures; fails == 0 {
		t.Fatal("budget faulter recorded no allocation failures")
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}
