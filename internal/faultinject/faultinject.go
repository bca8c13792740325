// Package faultinject is the chaos harness of the streaming pipeline: it
// wraps block-stream callbacks with deterministic, seed-driven faults —
// injected errors, block truncation and delays — so the robustness tests
// can drive the real unwinding paths (cancellation, panic recovery) on
// demand instead of waiting for production to find them.
//
// Determinism contract: an Injector is a pure function of (Config, stage
// names, call order). Each wrapped stage draws from its own rng sub-stream
// derived from the seed and the stage name, so two runs with the same
// configuration inject byte-identical fault sequences — a failing chaos run
// replays exactly. The zero-config Injector injects nothing and is safe to
// leave wired in: every probability is zero and ErrAfter is off.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist/rng"
	"repro/internal/trace"
)

// ErrInjected is the sentinel wrapped by every injected failure; chaos
// tests assert errors.Is(err, ErrInjected) to distinguish harness faults
// from genuine pipeline bugs.
var ErrInjected = errors.New("faultinject: injected fault")

// Config selects which faults an Injector deals and how often. The zero
// value injects nothing.
type Config struct {
	// Seed drives every per-stage fault stream; same seed, same faults.
	Seed int64
	// ErrAfter > 0 fails a stage's Nth block call (1-based, counted per
	// stage) with a wrapped ErrInjected — the deterministic "die at block
	// N" knob.
	ErrAfter int64
	// ErrProb is the per-call probability of failing with ErrInjected.
	ErrProb float64
	// TruncProb is the per-call probability of truncating the block to a
	// prefix (at least one record is kept when the block is non-empty, so
	// truncation corrupts coverage, not stream invariants).
	TruncProb float64
	// DelayProb is the per-call probability of sleeping Delay before the
	// call — the scheduler-jitter knob that shakes out ordering assumptions.
	DelayProb float64
	// Delay is the sleep applied on a delay fault.
	Delay time.Duration
}

// Stats counts the faults an Injector dealt, readable while a chaos run is
// still in flight.
type Stats struct {
	Blocks      int64 // wrapped block calls observed
	Errors      int64 // injected errors
	Truncations int64 // truncated blocks
	Delays      int64 // injected delays
}

// Injector wraps pipeline stages with the configured faults. Safe for
// concurrent use: stages draw from independent rng streams behind a lock
// each (stage wrappers are called from the pipeline's worker goroutines).
type Injector struct {
	cfg Config

	blocks      atomic.Int64
	errors      atomic.Int64
	truncations atomic.Int64
	delays      atomic.Int64
}

// New returns an injector dealing cfg's faults. Probabilities must lie in
// [0, 1] and a positive DelayProb needs a positive Delay.
func New(cfg Config) (*Injector, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{{"ErrProb", cfg.ErrProb}, {"TruncProb", cfg.TruncProb}, {"DelayProb", cfg.DelayProb}} {
		if p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("faultinject: %s must be in [0, 1], got %g", p.name, p.v)
		}
	}
	if cfg.DelayProb > 0 && cfg.Delay <= 0 {
		return nil, fmt.Errorf("faultinject: DelayProb %g needs a positive Delay", cfg.DelayProb)
	}
	if cfg.ErrAfter < 0 {
		return nil, fmt.Errorf("faultinject: ErrAfter must be >= 0, got %d", cfg.ErrAfter)
	}
	return &Injector{cfg: cfg}, nil
}

// Stats returns a snapshot of the faults dealt so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Blocks:      in.blocks.Load(),
		Errors:      in.errors.Load(),
		Truncations: in.truncations.Load(),
		Delays:      in.delays.Load(),
	}
}

// hashStage folds a stage name into the rng stream id so each stage gets
// its own deterministic fault sequence (FNV-1a, kept inline to avoid the
// hash interface allocation).
func hashStage(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// WrapBlockFn interposes the injector on one block-stream callback. The
// returned function deals the configured faults in a fixed order — delay,
// deterministic ErrAfter, probabilistic error, truncation — then forwards
// to fn. A nil injector (or a zero config) returns fn untouched, so wiring
// the hook costs nothing when chaos is off.
//
// Delay faults sleep uninterruptibly; a stage that must stay responsive to
// cancellation during injected delays (a daemon draining on SIGTERM) should
// use WrapBlockFnCtx instead.
func (in *Injector) WrapBlockFn(stage string, fn func(*trace.Block) error) func(*trace.Block) error {
	return in.WrapBlockFnCtx(context.Background(), stage, fn)
}

// WrapBlockFnCtx is WrapBlockFn with context-aware delay faults: a sleeping
// faulted stage wakes on ctx cancellation and returns the context's error
// immediately, so an injected delay can never stall a shutdown past its
// drain deadline. The fault *sequence* is identical to WrapBlockFn — the
// context only bounds how long a dealt delay is actually served.
func (in *Injector) WrapBlockFnCtx(ctx context.Context, stage string, fn func(*trace.Block) error) func(*trace.Block) error {
	if in == nil {
		return fn
	}
	cfg := in.cfg
	if cfg.ErrAfter == 0 && cfg.ErrProb == 0 && cfg.TruncProb == 0 && cfg.DelayProb == 0 {
		return fn
	}
	var mu sync.Mutex
	r := rng.NewStream(cfg.Seed, hashStage(stage))
	var calls int64
	return func(blk *trace.Block) error {
		mu.Lock()
		calls++
		n := calls
		var dErr, dTrunc, dDelay float64
		if cfg.ErrProb > 0 || cfg.TruncProb > 0 || cfg.DelayProb > 0 {
			// Three draws per call regardless of which faults are armed, so
			// enabling one fault never shifts another's sequence.
			dDelay = r.Float64()
			dErr = r.Float64()
			dTrunc = r.Float64()
		}
		mu.Unlock()
		in.blocks.Add(1)
		if cfg.DelayProb > 0 && dDelay < cfg.DelayProb {
			in.delays.Add(1)
			if err := sleepCtx(ctx, cfg.Delay); err != nil {
				return fmt.Errorf("faultinject: stage %q delay interrupted: %w", stage, err)
			}
		}
		if cfg.ErrAfter > 0 && n >= cfg.ErrAfter {
			in.errors.Add(1)
			return fmt.Errorf("faultinject: stage %q failed at block %d: %w", stage, n, ErrInjected)
		}
		if cfg.ErrProb > 0 && dErr < cfg.ErrProb {
			in.errors.Add(1)
			return fmt.Errorf("faultinject: stage %q random failure at block %d: %w", stage, n, ErrInjected)
		}
		if cfg.TruncProb > 0 && dTrunc < cfg.TruncProb {
			if blk.Len() > 1 {
				in.truncations.Add(1)
				*blk = blk.Slice(0, 1+int(uint64(n)%uint64(blk.Len()-1)))
			}
		}
		return fn(blk)
	}
}

// sleepCtx sleeps d or until ctx is cancelled, whichever comes first,
// returning the context's error on interruption. The context.Background
// fast path (WrapBlockFn) keeps plain time.Sleep: no timer allocation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
