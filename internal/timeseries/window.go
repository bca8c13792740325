package timeseries

import "fmt"

// This file holds the sliding-window state of the online service mode: a
// fixed-capacity window over per-interval scalars (the predictor's rate
// history) and the snapshot/restore face of the Binner, so a long-running
// pipeline keeps bounded series memory and can checkpoint what it holds.

// Window is a fixed-capacity sliding window over float64 samples: Push
// appends and evicts the oldest sample once full, so memory is bounded by
// the capacity no matter how long the stream runs.
type Window struct {
	buf  []float64
	head int // index of the oldest sample
	n    int
}

// NewWindow returns a window holding at most capacity samples.
func NewWindow(capacity int) (*Window, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("timeseries: window capacity must be >= 1, got %d", capacity)
	}
	return &Window{buf: make([]float64, capacity)}, nil
}

// Push appends one sample, evicting the oldest when the window is full.
func (w *Window) Push(v float64) {
	if w.n < len(w.buf) {
		w.buf[(w.head+w.n)%len(w.buf)] = v
		w.n++
		return
	}
	w.buf[w.head] = v
	w.head = (w.head + 1) % len(w.buf)
}

// AppendValues appends the held samples, oldest to newest, to dst and
// returns it — the allocation-free read the refit loop uses each interval.
func (w *Window) AppendValues(dst []float64) []float64 {
	for i := 0; i < w.n; i++ {
		dst = append(dst, w.buf[(w.head+i)%len(w.buf)])
	}
	return dst
}

// Values returns a fresh slice of the held samples, oldest to newest.
func (w *Window) Values() []float64 {
	if w.n == 0 {
		return nil
	}
	return w.AppendValues(make([]float64, 0, w.n))
}

// RestoreValues replaces the window's contents with vs (oldest first),
// which must fit the capacity.
func (w *Window) RestoreValues(vs []float64) error {
	if len(vs) > len(w.buf) {
		return fmt.Errorf("timeseries: restoring %d samples into a window of capacity %d", len(vs), len(w.buf))
	}
	w.head = 0
	w.n = copy(w.buf, vs)
	return nil
}

// BinnerState is a Binner checkpoint: the window geometry and the
// accumulated per-bin volumes.
type BinnerState struct {
	Duration float64
	Delta    float64
	Bits     []float64
}

// State captures the binner's resumable state (the bins are copied; the
// binner keeps accumulating).
func (b *Binner) State() BinnerState {
	return BinnerState{
		Duration: b.duration,
		Delta:    b.delta,
		Bits:     append([]float64(nil), b.bits...),
	}
}

// RestoreState re-targets the binner to the snapshot's geometry and adopts
// its accumulated volumes. An inconsistent snapshot (bin count not matching
// the geometry) is rejected and leaves the binner freshly re-initialised.
func (b *Binner) RestoreState(st BinnerState) error {
	if err := b.Reinit(st.Duration, st.Delta); err != nil {
		return err
	}
	if len(st.Bits) != len(b.bits) {
		return fmt.Errorf("timeseries: snapshot has %d bins, geometry (%g/%g) implies %d",
			len(st.Bits), st.Duration, st.Delta, len(b.bits))
	}
	copy(b.bits, st.Bits)
	return nil
}
