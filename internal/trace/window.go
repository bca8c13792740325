package trace

import (
	"context"
	"errors"
	"fmt"
	"iter"
)

// Window is a replayable sub-stream of a synthetic trace: the packets of
// cfg's trace whose times fall in [Lo, Hi), rebased to Lo. Because
// synthesis is deterministic under its seed, the window regenerates the same
// records on every iteration — so a consumer that needs one analysis
// interval's packets more than once (reference figures, per-interval
// re-measurement) can replay them on demand instead of holding an
// O(interval) buffer alive.
//
// Replay cost for a plain window is proportional to the trace prefix up to
// Hi (the serial stream must run from the trace origin to reproduce the
// flows in progress at Lo), so windows are cheap near the trace start and
// are meant for occasional replay, not as the bulk measurement path — the
// streaming pipeline partitions a single synthesis pass for that. A window
// obtained from Checkpoints.Window instead replays from the nearest
// checkpoint in O(window + active flows), making deep offsets as cheap as
// shallow ones.
type Window struct {
	Lo, Hi float64
	cfg    Config
	ck     *Checkpoints // non-nil: replay from the checkpoint index
}

// NewWindow validates cfg and the bounds and returns a replayable window
// over [lo, hi) of cfg's trace.
func NewWindow(cfg Config, lo, hi float64) (Window, error) {
	// Validate exactly what the serial stream validates, so Records cannot
	// fail later (regeneration uses the exact cfg accepted here), without
	// sizing a whole-trace player nobody replays.
	c, err := cfg.withDefaults()
	if err != nil {
		return Window{}, err
	}
	if _, err := newProgramSource(c); err != nil {
		return Window{}, fmt.Errorf("trace: %w", err)
	}
	if lo < 0 || !(hi > lo) {
		return Window{}, fmt.Errorf("trace: window bounds must satisfy 0 <= lo < hi, got [%g, %g)", lo, hi)
	}
	return Window{Lo: lo, Hi: hi, cfg: cfg}, nil
}

// Records returns the window's packets in time order, with times rebased to
// Lo (so they lie in [0, Duration)). Each call regenerates the trace from
// its seed and yields identical records; generation stops at the first
// block that passes Hi.
func (w Window) Records() iter.Seq[Record] {
	if w.ck != nil {
		return func(yield func(Record) bool) {
			w.ck.replay(w.Lo, w.Hi, yield)
		}
	}
	return func(yield func(Record) bool) {
		// NewWindow validated cfg, so the stream's only error is the stop
		// sentinel.
		_, _ = streamSerial(context.Background(), w.cfg, func(blk *Block) error {
			for i, t := range blk.Times {
				if t < w.Lo {
					continue
				}
				if t >= w.Hi {
					return errWindowDone
				}
				rec := blk.Record(i)
				rec.Time -= w.Lo
				if !yield(rec) {
					return errWindowDone
				}
			}
			return nil
		})
	}
}

// errWindowDone stops a plain window's stream once it passes Hi or the
// consumer stops.
var errWindowDone = errors.New("trace: window done")
