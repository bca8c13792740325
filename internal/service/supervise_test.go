package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeClock drives supervisor policy tests without real sleeps: Sleep
// advances the clock instantly and records each delay.
type fakeClock struct {
	t      time.Time
	slept  []time.Duration
	cancel func() // when set, called after cancelAt sleeps
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.t = c.t.Add(d)
	c.slept = append(c.slept, d)
	return nil
}

func newTestSupervisor(t *testing.T, clk *fakeClock, maxRestarts int, window time.Duration) *Supervisor {
	t.Helper()
	bo, err := NewBackoff(10*time.Millisecond, 1*time.Second, 1, "link0")
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBreaker(maxRestarts, window, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return &Supervisor{Name: "link0", Backoff: bo, Breaker: br, Now: clk.now, Sleep: clk.sleep}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, Canceled},
		{context.Canceled, Canceled},
		{fmt.Errorf("x: %w", context.DeadlineExceeded), Canceled},
		{MarkPermanent(errors.New("bad config")), Permanent},
		{fmt.Errorf("wrap: %w", MarkPermanent(errors.New("x"))), Permanent},
		{errors.New("io hiccup"), Transient},
		{&PanicError{Value: "boom"}, Transient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if MarkPermanent(nil) != nil {
		t.Error("MarkPermanent(nil) != nil")
	}
	inner := errors.New("cause")
	if !errors.Is(MarkPermanent(fmt.Errorf("x: %w", inner)), inner) {
		t.Error("MarkPermanent hides the cause from errors.Is")
	}
}

func TestSupervisorRestartsUntilSuccess(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := newTestSupervisor(t, clk, 10, time.Hour)
	runs := 0
	var events []Event
	s.OnEvent = func(ev Event) { events = append(events, ev) }
	err := s.Run(context.Background(), func(context.Context) error {
		runs++
		if runs < 4 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if runs != 4 {
		t.Fatalf("runs = %d, want 4", runs)
	}
	if len(clk.slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(clk.slept))
	}
	// Exponential doubling under jitter: delay i lies in [0.5, 1) × base·2^i.
	base := 10 * time.Millisecond
	for i, d := range clk.slept {
		nominal := base << i
		if d < nominal/2 || d >= nominal {
			t.Errorf("delay %d = %v outside [%v, %v)", i, d, nominal/2, nominal)
		}
	}
	if len(events) != 4 || events[3].Class != Canceled {
		t.Fatalf("events = %+v", events)
	}
}

func TestSupervisorBackoffIsDeterministic(t *testing.T) {
	seq := func() []time.Duration {
		clk := &fakeClock{t: time.Unix(0, 0)}
		s := newTestSupervisor(t, clk, 10, time.Hour)
		runs := 0
		s.Run(context.Background(), func(context.Context) error {
			if runs++; runs < 6 {
				return errors.New("x")
			}
			return nil
		})
		return clk.slept
	}
	a, b := seq(), seq()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("delay sequences %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different delays: %v vs %v", a, b)
		}
	}
}

func TestSupervisorContainsPanics(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := newTestSupervisor(t, clk, 10, time.Hour)
	runs := 0
	var contained *PanicError
	s.OnEvent = func(ev Event) {
		var pe *PanicError
		if errors.As(ev.Err, &pe) {
			contained = pe
		}
	}
	err := s.Run(context.Background(), func(context.Context) error {
		if runs++; runs == 1 {
			panic("worker exploded")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2 (panic contained and restarted)", runs)
	}
	if contained == nil || contained.Value != "worker exploded" || len(contained.Stack) == 0 {
		t.Fatalf("contained panic = %+v", contained)
	}
}

func TestSupervisorBreakerTrips(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := newTestSupervisor(t, clk, 3, time.Hour)
	runs := 0
	err := s.Run(context.Background(), func(context.Context) error {
		runs++
		return errors.New("always failing")
	})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want wrapped ErrCircuitOpen", err)
	}
	if Classify(err) != Transient {
		// The terminal error is what the daemon exits with; its class is not
		// load-bearing, but it must never read as a clean cancellation.
		t.Fatalf("terminal error classifies as %v", Classify(err))
	}
	// 3 allowed restarts => runs 1..4 executed (the 4th failure trips).
	if runs != 4 {
		t.Fatalf("runs = %d, want 4", runs)
	}
}

func TestSupervisorBreakerWindowSlides(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	// 2 restarts per 50ms window; failures spaced 40ms apart by sleeps
	// larger than the backoff... use explicit clock stepping instead.
	br, err := NewBreaker(2, 50*time.Millisecond, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	if !br.Allow() || !br.Allow() {
		t.Fatal("first two events must be allowed")
	}
	if br.Allow() {
		t.Fatal("third event inside the window must trip")
	}
	clk.t = clk.t.Add(60 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("event after the window slid must be allowed")
	}
}

func TestSupervisorPermanentStops(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := newTestSupervisor(t, clk, 10, time.Hour)
	runs := 0
	cause := errors.New("bad input file")
	err := s.Run(context.Background(), func(context.Context) error {
		runs++
		return MarkPermanent(cause)
	})
	if runs != 1 {
		t.Fatalf("permanent failure restarted: %d runs", runs)
	}
	if !errors.Is(err, ErrPermanent) || !errors.Is(err, cause) {
		t.Fatalf("err = %v", err)
	}
}

func TestSupervisorCancellationIsClean(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := newTestSupervisor(t, clk, 10, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	err := s.Run(ctx, func(c context.Context) error {
		cancel()
		return fmt.Errorf("ingest: %w", context.Canceled)
	})
	if err != nil {
		t.Fatalf("cancelled run returned %v, want nil", err)
	}
	// A transient error that races cancellation is also a clean stop.
	ctx2, cancel2 := context.WithCancel(context.Background())
	err = s.Run(ctx2, func(c context.Context) error {
		cancel2()
		return errors.New("crash during shutdown")
	})
	if err != nil {
		t.Fatalf("raced cancellation returned %v, want nil", err)
	}
}

func TestSupervisorHealthyRunResetsBackoff(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := newTestSupervisor(t, clk, 100, time.Hour)
	s.HealthyAfter = time.Minute
	runs := 0
	err := s.Run(context.Background(), func(context.Context) error {
		runs++
		switch {
		case runs < 4:
			return errors.New("early crash")
		case runs == 4:
			clk.t = clk.t.Add(2 * time.Minute) // a long healthy run, then a crash
			return errors.New("late crash")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Delay after the healthy run restarts from base (jittered to [5,10)ms),
	// not from the escalated schedule (which by run 4 is ≥ 40ms nominal).
	last := clk.slept[len(clk.slept)-1]
	if last >= 10*time.Millisecond {
		t.Fatalf("post-healthy delay %v did not reset to base", last)
	}
}
