// Package membudget provides a byte-accounted memory budget for flowd's
// ingest queue (flowd -membudget): the link reserves each queued block's
// byte cost before it enqueues the block and releases it when the
// measurement recycles the block. Under pressure the link either blocks
// (backpressure, the default — memory is bounded and output is exact) or,
// with flowd -shed, fails fast via TryReserve and drops the block with
// exact accounting, so a live source never stalls. The batch suite needs
// no budget: its memory is bounded by its structure (see README, "Bounded
// memory").
//
// The budget is a counting semaphore over bytes, not an allocator: it
// never touches the memory it accounts for, so a stage can charge any
// resident cost (block columns, derived key columns, routing lists) under
// one limit. All methods are safe for concurrent use.
package membudget

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Reserver is the reservation face of a Budget. The link holds this
// interface so tests can substitute budgets that refuse or alternate
// reservations without the link knowing.
type Reserver interface {
	// Reserve blocks until n bytes fit under the limit, then charges them.
	// It returns ctx's error (wrapped) if the context is cancelled first.
	Reserve(ctx context.Context, n int64) error
	// TryReserve charges n bytes if they fit under the limit right now and
	// reports whether it did. It never blocks — the probe of flowd -shed.
	TryReserve(n int64) bool
	// Release returns n bytes charged by a successful Reserve/TryReserve.
	Release(n int64)
}

// Budget is a byte-accounted counting semaphore. The zero value is not
// usable; call New. A nil *Budget is a valid no-op Reserver (every
// reservation succeeds instantly), so call sites need no branching when
// budgeting is off.
type Budget struct {
	mu sync.Mutex
	// wait is closed and replaced on every Release, broadcasting to blocked
	// reservers; each re-checks the limit and re-arms on the new channel.
	wait  chan struct{}
	limit int64
	used  int64
	peak  int64

	waits  atomic.Int64 // Reserve calls that had to block at least once
	denied atomic.Int64 // TryReserve calls that failed
}

// New returns a budget of limit bytes. limit must be positive — a
// zero-byte budget would deadlock its first reserver (use a nil *Budget
// for "no budget").
func New(limit int64) (*Budget, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("membudget: limit must be > 0 bytes, got %d (use a nil budget for unlimited)", limit)
	}
	return &Budget{limit: limit, wait: make(chan struct{})}, nil
}

// clamp caps a single reservation at the whole limit, so one reservation
// larger than the budget degrades to "wait until everything else drains"
// instead of deadlocking forever. Release applies the same clamp, keeping
// the books balanced as long as callers release what they reserved.
func (b *Budget) clamp(n int64) int64 {
	if n > b.limit {
		return b.limit
	}
	return n
}

// Reserve implements Reserver. A nil budget reserves instantly.
func (b *Budget) Reserve(ctx context.Context, n int64) error {
	if b == nil {
		return nil
	}
	blocked := false
	for {
		b.mu.Lock()
		m := b.clamp(n)
		if b.used+m <= b.limit {
			b.used += m
			if b.used > b.peak {
				b.peak = b.used
			}
			b.mu.Unlock()
			return nil
		}
		ch := b.wait
		b.mu.Unlock()
		if !blocked {
			blocked = true
			b.waits.Add(1)
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("membudget: reserving %d bytes: %w", n, ctx.Err())
		}
	}
}

// TryReserve implements Reserver. A nil budget reserves instantly.
func (b *Budget) TryReserve(n int64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.clamp(n)
	if b.used+m > b.limit {
		b.denied.Add(1)
		return false
	}
	b.used += m
	if b.used > b.peak {
		b.peak = b.used
	}
	return true
}

// Release implements Reserver. Releasing more than is reserved is a
// bookkeeping bug on the caller's side and panics. A nil budget is a no-op.
func (b *Budget) Release(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.used -= b.clamp(n)
	if b.used < 0 {
		b.mu.Unlock()
		panic(fmt.Sprintf("membudget: release of %d bytes exceeds outstanding reservations", n))
	}
	close(b.wait)
	b.wait = make(chan struct{})
	b.mu.Unlock()
}

// Limit returns the budget's byte limit.
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Used returns the bytes currently reserved.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Peak returns the high-water mark of reserved bytes.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// Waits returns how many Reserve calls had to block at least once — the
// backpressure counter.
func (b *Budget) Waits() int64 {
	if b == nil {
		return 0
	}
	return b.waits.Load()
}

// Denied returns how many TryReserve calls failed — the load-shedding
// pressure counter.
func (b *Budget) Denied() int64 {
	if b == nil {
		return 0
	}
	return b.denied.Load()
}
