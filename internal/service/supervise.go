// Package service is the supervision layer of the online flow-telemetry
// daemon: it keeps long-running link pipelines alive across panics and
// transient failures. Each pipeline runs under a Supervisor that contains
// panics at the goroutine boundary, classifies failures through the error
// taxonomy (cancellation / permanent / transient), restarts crashed runs
// with deterministic-seeded exponential backoff + jitter, and trips a
// restart-intensity circuit breaker — too many restarts inside a window
// yields a terminal error, never a hot crash loop.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"repro/internal/dist/rng"
)

// ErrPermanent marks failures that restarting cannot cure (malformed input
// file, invalid configuration). Wrap with MarkPermanent; the supervisor
// stops immediately instead of burning restart budget.
var ErrPermanent = errors.New("service: permanent failure")

// ErrCircuitOpen is wrapped into the terminal error when the restart
// breaker trips: the supervised run failed too many times in too short a
// window to keep retrying.
var ErrCircuitOpen = errors.New("service: restart circuit breaker open")

// permanentError wraps an error so Classify sees it as permanent while
// errors.Is/As still reach the cause.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }
func (e *permanentError) Is(target error) bool {
	return target == ErrPermanent
}

// MarkPermanent wraps err so the supervisor treats it as not worth
// retrying. A nil err stays nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// PanicError is a contained panic converted into an error at a supervision
// boundary, carrying the recovered value and the goroutine stack.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("service: contained panic: %v", e.Value)
}

// Class is the failure taxonomy the supervisor restarts by.
type Class int

const (
	// Canceled: the run stopped because its context was cancelled — a
	// shutdown, not a failure. Never restarted.
	Canceled Class = iota
	// Permanent: retrying cannot help (bad config, malformed input,
	// tripped breaker). Never restarted.
	Permanent
	// Transient: everything else — I/O hiccups, injected faults, contained
	// panics. Restarted under backoff until the breaker trips.
	Transient
)

// String names the class for logs.
func (c Class) String() string {
	switch c {
	case Canceled:
		return "canceled"
	case Permanent:
		return "permanent"
	case Transient:
		return "transient"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classify places an error in the taxonomy. nil classifies as Canceled
// (a clean return is a stop, not a failure to retry).
func Classify(err error) Class {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return Canceled
	case errors.Is(err, ErrPermanent):
		return Permanent
	default:
		return Transient
	}
}

// Backoff generates the supervisor's restart delays: exponential doubling
// from Base to Max with deterministic jitter — each delay is scaled by a
// factor drawn uniformly from [0.5, 1) off a seeded rng stream, so restart
// timing never synchronises across links yet replays exactly under a seed.
type Backoff struct {
	base time.Duration
	max  time.Duration
	cur  time.Duration
	r    *rng.Rand
}

// NewBackoff builds a backoff policy seeded per supervised entity: same
// (seed, name), same delay sequence.
func NewBackoff(base, max time.Duration, seed int64, name string) (*Backoff, error) {
	if base <= 0 {
		return nil, fmt.Errorf("service: backoff base must be > 0, got %v", base)
	}
	if max < base {
		return nil, fmt.Errorf("service: backoff max %v below base %v", max, base)
	}
	return &Backoff{base: base, max: max, cur: base, r: rng.NewStream(seed, hashName(name))}, nil
}

// Next returns the next restart delay and advances the schedule.
func (b *Backoff) Next() time.Duration {
	d := b.cur
	if b.cur < b.max/2 {
		b.cur *= 2
	} else {
		b.cur = b.max
	}
	return time.Duration((0.5 + 0.5*b.r.Float64()) * float64(d))
}

// Reset rewinds the schedule to the base delay (called after a run survives
// long enough to be considered healthy).
func (b *Backoff) Reset() { b.cur = b.base }

// hashName folds a supervised entity's name into an rng stream id (FNV-1a).
func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Breaker is a restart-intensity circuit breaker: it permits at most max
// events inside a sliding window. The clock is injectable so policy tests
// run on a fake clock instead of real sleeps.
type Breaker struct {
	max    int
	window time.Duration
	now    func() time.Time
	times  []time.Time // ring of the last max event times
	head   int
	n      int
}

// NewBreaker permits max events per window. now == nil uses time.Now.
func NewBreaker(max int, window time.Duration, now func() time.Time) (*Breaker, error) {
	if max < 1 {
		return nil, fmt.Errorf("service: breaker max must be >= 1, got %d", max)
	}
	if window <= 0 {
		return nil, fmt.Errorf("service: breaker window must be > 0, got %v", window)
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{max: max, window: window, now: now, times: make([]time.Time, max)}, nil
}

// Allow records one event and reports whether it stays within the allowed
// intensity: false means max events have now occurred inside one window —
// the caller must stop restarting.
func (b *Breaker) Allow() bool {
	t := b.now()
	if b.n == b.max {
		oldest := b.times[b.head]
		if t.Sub(oldest) < b.window {
			return false
		}
		b.times[b.head] = t
		b.head = (b.head + 1) % b.max
		return true
	}
	b.times[(b.head+b.n)%b.max] = t
	b.n++
	return true
}

// Event describes one supervision decision, delivered to the OnEvent hook.
type Event struct {
	Name    string
	Restart int   // completed runs so far (1 = first run just ended)
	Err     error // how the run ended
	Class   Class
	Delay   time.Duration // backoff before the next run (Transient only)
}

// Supervisor keeps one run function alive: panics are contained, transient
// failures restart under backoff, the breaker bounds restart intensity,
// cancellation and permanent failures stop the loop.
type Supervisor struct {
	// Name labels events and seeds the jitter stream.
	Name string
	// Backoff is the restart delay policy (required).
	Backoff *Backoff
	// Breaker bounds restart intensity (required).
	Breaker *Breaker
	// HealthyAfter resets the backoff schedule when a run lasts at least
	// this long before failing (0 = never reset).
	HealthyAfter time.Duration
	// OnEvent, when set, observes every run ending and restart decision.
	OnEvent func(Event)
	// now/sleep are injectable for tests; nil uses the real clock.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

// runContained invokes run with panics converted to *PanicError.
func runContained(ctx context.Context, run func(context.Context) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return run(ctx)
}

// sleepCtx sleeps d or until ctx cancels, returning the context error on
// interruption.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
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

// Run supervises run until it stops for a non-transient reason. The return
// value is nil on clean cancellation (run returned nil or the context's
// error after ctx was cancelled); otherwise the terminal failure —
// permanent errors as classified, or the last transient error wrapped with
// ErrCircuitOpen when the breaker trips.
func (s *Supervisor) Run(ctx context.Context, run func(context.Context) error) error {
	if s.Backoff == nil || s.Breaker == nil {
		return MarkPermanent(fmt.Errorf("service: supervisor %q needs a Backoff and a Breaker", s.Name))
	}
	now := s.Now
	if now == nil {
		now = time.Now
	}
	sleep := s.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	for restart := 1; ; restart++ {
		started := now()
		err := runContained(ctx, run)
		class := Classify(err)
		// A failure that races shutdown is shutdown: don't burn restart
		// budget on a run the caller already cancelled.
		if class == Transient && ctx.Err() != nil {
			class = Canceled
		}
		ev := Event{Name: s.Name, Restart: restart, Err: err, Class: class}
		switch class {
		case Canceled:
			s.emit(ev)
			return nil
		case Permanent:
			s.emit(ev)
			return fmt.Errorf("service: %q stopped: %w", s.Name, err)
		}
		if s.HealthyAfter > 0 && now().Sub(started) >= s.HealthyAfter {
			s.Backoff.Reset()
		}
		if !s.Breaker.Allow() {
			s.emit(ev)
			return fmt.Errorf("service: %q gave up after %d runs (%w): last error: %v",
				s.Name, restart, ErrCircuitOpen, err)
		}
		ev.Delay = s.Backoff.Next()
		s.emit(ev)
		if serr := sleep(ctx, ev.Delay); serr != nil {
			return nil // cancelled while waiting to restart: clean stop
		}
		if ctx.Err() != nil {
			return nil
		}
	}
}

func (s *Supervisor) emit(ev Event) {
	if s.OnEvent != nil {
		s.OnEvent(ev)
	}
}
