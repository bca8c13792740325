package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/trace"
)

func block(n int) *trace.Block {
	b := &trace.Block{}
	for i := 0; i < n; i++ {
		b.Append(float64(i), 1, uint64(i), uint64(i))
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{ErrProb: -0.1},
		{ErrProb: 1.1},
		{TruncProb: 2},
		{DelayProb: -1},
		{DelayProb: 0.5}, // no Delay
		{ErrAfter: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) succeeded, want error", cfg)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

func TestNilAndZeroInjectorPassThrough(t *testing.T) {
	called := 0
	fn := func(*trace.Block) error { called++; return nil }
	var nilIn *Injector
	if got := nilIn.WrapBlockFn("s", fn); got == nil {
		t.Fatal("nil injector returned nil fn")
	} else if err := got(block(1)); err != nil || called != 1 {
		t.Fatalf("nil injector wrapper: err %v, called %d", err, called)
	}
	in, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := in.WrapBlockFn("s", fn)
	if err := wrapped(block(1)); err != nil || called != 2 {
		t.Fatalf("zero-config wrapper: err %v, called %d", err, called)
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("zero-config injector recorded stats %+v", s)
	}
}

func TestErrAfterFailsDeterministically(t *testing.T) {
	in, err := New(Config{Seed: 7, ErrAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	fn := in.WrapBlockFn("gen", func(b *trace.Block) error {
		seen = append(seen, b.Len())
		return nil
	})
	for i := 1; i <= 5; i++ {
		err := fn(block(i))
		if i < 3 && err != nil {
			t.Fatalf("call %d failed early: %v", i, err)
		}
		if i >= 3 {
			if err == nil {
				t.Fatalf("call %d did not fail", i)
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d error %v does not wrap ErrInjected", i, err)
			}
		}
	}
	if len(seen) != 2 {
		t.Fatalf("inner fn saw %d calls, want 2", len(seen))
	}
	if s := in.Stats(); s.Errors != 3 || s.Blocks != 5 {
		t.Fatalf("Stats = %+v, want 3 errors over 5 blocks", s)
	}
}

// Same (seed, stage, call order) must deal the identical fault sequence;
// a different stage name must deal an independent one.
func TestFaultSequenceDeterministicPerStage(t *testing.T) {
	run := func(stage string) []string {
		in, err := New(Config{Seed: 42, ErrProb: 0.3, TruncProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		fn := in.WrapBlockFn(stage, func(*trace.Block) error { return nil })
		var out []string
		for i := 0; i < 64; i++ {
			b := block(10)
			err := fn(b)
			switch {
			case err != nil:
				out = append(out, "E")
			case b.Len() < 10:
				out = append(out, "T")
			default:
				out = append(out, ".")
			}
		}
		return out
	}
	a1, a2, b1 := run("alpha"), run("alpha"), run("beta")
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("call %d: fault %q vs %q on identical runs", i, a1[i], a2[i])
		}
	}
	same := true
	for i := range a1 {
		if a1[i] != b1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("stages alpha and beta drew identical fault sequences")
	}
	// Sanity: with p=0.3 each over 64 calls, both fault kinds must appear.
	var errs, truncs int
	for _, s := range a1 {
		switch s {
		case "E":
			errs++
		case "T":
			truncs++
		}
	}
	if errs == 0 || truncs == 0 {
		t.Fatalf("fault mix degenerate: %d errors, %d truncations", errs, truncs)
	}
}

func TestTruncationKeepsNonEmptyPrefix(t *testing.T) {
	in, err := New(Config{Seed: 3, TruncProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	fn := in.WrapBlockFn("s", func(*trace.Block) error { return nil })
	for i := 0; i < 32; i++ {
		b := block(8)
		want := append([]float64(nil), b.Times...)
		if err := fn(b); err != nil {
			t.Fatal(err)
		}
		if b.Len() < 1 || b.Len() > 8 {
			t.Fatalf("truncated block has %d records", b.Len())
		}
		for j := 0; j < b.Len(); j++ {
			if b.Times[j] != want[j] {
				t.Fatalf("truncation reordered records: %v vs prefix of %v", b.Times, want)
			}
		}
	}
	// Single-record blocks are never truncated to empty.
	b := block(1)
	if err := fn(b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("single-record block truncated to %d", b.Len())
	}
}

func TestDelayFaultSleeps(t *testing.T) {
	in, err := New(Config{Seed: 5, DelayProb: 1, Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fn := in.WrapBlockFn("s", func(*trace.Block) error { return nil })
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := fn(block(1)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("5 delay faults took %v, want >= 5ms", elapsed)
	}
	if s := in.Stats(); s.Delays != 5 {
		t.Fatalf("Delays = %d, want 5", s.Delays)
	}
}

// TestDelayRespectsContext pins the satellite contract: a sleeping faulted
// stage must wake on cancellation instead of stalling a drain deadline.
func TestDelayRespectsContext(t *testing.T) {
	in, err := New(Config{Seed: 1, DelayProb: 1, Delay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fn := in.WrapBlockFnCtx(ctx, "ingest", func(*trace.Block) error { return nil })
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- fn(block(3)) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted delay returned %v, want wrapped context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("stage stalled %v past cancellation", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("faulted stage never woke after cancellation")
	}
	if s := in.Stats(); s.Delays != 1 {
		t.Fatalf("Delays = %d, want 1", s.Delays)
	}
}

// TestWrapBlockFnCtxSameFaultSequence asserts the ctx-aware wrapper deals
// the identical fault sequence as the background one.
func TestWrapBlockFnCtxSameFaultSequence(t *testing.T) {
	cfg := Config{Seed: 42, ErrProb: 0.3, TruncProb: 0.3}
	runSeq := func(wrap func(*Injector) func(*trace.Block) error) []int {
		in, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fn := wrap(in)
		var lens []int
		for i := 0; i < 50; i++ {
			blk := block(8)
			if err := fn(blk); err != nil {
				lens = append(lens, -1)
			} else {
				lens = append(lens, blk.Len())
			}
		}
		return lens
	}
	plain := runSeq(func(in *Injector) func(*trace.Block) error {
		return in.WrapBlockFn("s", func(*trace.Block) error { return nil })
	})
	ctxed := runSeq(func(in *Injector) func(*trace.Block) error {
		return in.WrapBlockFnCtx(context.Background(), "s", func(*trace.Block) error { return nil })
	})
	for i := range plain {
		if plain[i] != ctxed[i] {
			t.Fatalf("fault sequences diverge at call %d: %v vs %v", i, plain, ctxed)
		}
	}
}
