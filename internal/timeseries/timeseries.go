// Package timeseries turns a packet stream into the measured total-rate
// process of the paper's §V-F: the volume of data crossing the link is
// averaged over consecutive intervals of length Δ (the paper uses 200 ms,
// the average round-trip time), yielding a piecewise-constant rate series
// whose first two moments are compared against the model.
package timeseries

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/flow"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Series is a measured rate process: Rate[k] is the average rate in bit/s
// over [k·Delta, (k+1)·Delta).
type Series struct {
	Delta float64
	Rate  []float64
}

// Binner accumulates packet volumes into rate bins as the packets stream
// by, so the rate series of an interval is built in the same pass that
// measures its flows — no second scan over a materialised record slice.
// One Binner is reused across intervals via Reinit. A window of duration d
// holds n = ⌊d/Δ⌋ whole bins and ends at min(d, n·Δ): a packet in a
// trailing partial bin is outside it, for Add as for Series.Subtract.
type Binner struct {
	delta    float64
	duration float64
	bits     []float64
}

// MaxBins caps the bins of one Binner window at the int32 range: a
// duration/delta quotient past it (a 1e15 s window at 200 ms) is a
// configuration error, not an allocation to attempt.
const MaxBins = math.MaxInt32

// NewBinner prepares the whole bins of length delta in [0, duration).
func NewBinner(duration, delta float64) (*Binner, error) {
	b := &Binner{}
	if err := b.Reinit(duration, delta); err != nil {
		return nil, err
	}
	return b, nil
}

// Reinit re-targets the binner to a fresh [0, duration) window with bins of
// delta, zeroing the bins and reusing their storage when it is large
// enough — the path a core.Meter re-arms its bins through, which bins
// thousands of intervals without reallocating.
func (b *Binner) Reinit(duration, delta float64) error {
	if !(delta > 0) || math.IsInf(delta, 0) {
		return fmt.Errorf("timeseries: delta must be finite and > 0, got %g", delta)
	}
	if !(duration > 0) || math.IsInf(duration, 0) {
		return fmt.Errorf("timeseries: duration must be finite and > 0, got %g", duration)
	}
	// Checked in float space: the int conversion of an oversized quotient
	// is undefined.
	bins := duration / delta
	if bins > MaxBins {
		return fmt.Errorf("timeseries: duration %g over delta %g needs %g bins, more than %d", duration, delta, bins, MaxBins)
	}
	n := int(bins)
	if n == 0 {
		return fmt.Errorf("timeseries: duration %g shorter than delta %g", duration, delta)
	}
	b.delta, b.duration = delta, min(duration, float64(n)*delta)
	if cap(b.bits) >= n {
		b.bits = b.bits[:n]
		clear(b.bits)
	} else {
		b.bits = make([]float64, n)
	}
	return nil
}

// Add accounts one packet of the given size at time t (relative to the
// window origin). Packets outside the window are ignored; bin boundaries
// use the convention t ∈ [kΔ, (k+1)Δ).
//
//repro:hotpath
func (b *Binner) Add(t, bits float64) {
	if t < 0 || t >= b.duration {
		return
	}
	k := int(t / b.delta)
	if k >= len(b.bits) { // guard the t == n·Δ-ε float edge
		k = len(b.bits) - 1
	}
	b.bits[k] += bits
}

// AddBlock accounts every packet of a SoA block in one pass over its time
// and size columns — the batch face the streaming measurement pipeline
// bins with.
//
//repro:hotpath
func (b *Binner) AddBlock(blk *trace.Block) {
	for j, t := range blk.Times {
		b.Add(t, float64(blk.Sizes[j])*8)
	}
}

// Series snapshots the accumulated volumes as a rate series. The returned
// series owns its storage, so the binner can be re-initialised and reused
// (and the series mutated, e.g. by Subtract) independently.
func (b *Binner) Series() Series { return b.SeriesInto(nil) }

// SeriesInto is Series written into dst's storage, grown only when it is
// too small: a caller that snapshots every interval reuses one slice. The
// series aliases dst, never the binner.
func (b *Binner) SeriesInto(dst []float64) Series {
	rate := slices.Grow(dst[:0], len(b.bits))[:len(b.bits)]
	for k, v := range b.bits {
		rate[k] = v / b.delta
	}
	return Series{Delta: b.delta, Rate: rate}
}

// Subtract removes the given discarded packets (single-packet flows, which
// the paper excludes from the measured variance) from the series in place.
func (s Series) Subtract(pkts []flow.DiscardedPacket) {
	n := len(s.Rate)
	for _, p := range pkts {
		if p.Time < 0 {
			continue
		}
		k := int(p.Time / s.Delta)
		if k >= n {
			continue
		}
		s.Rate[k] -= p.Bits / s.Delta
		if s.Rate[k] < 0 {
			s.Rate[k] = 0
		}
	}
}

// Mean returns the time-average rate in bit/s.
func (s Series) Mean() float64 { return stats.Mean(s.Rate) }

// Variance returns the sample variance of the binned rate, the σ̂_Δ² the
// model's Corollary 2 is validated against.
func (s Series) Variance() float64 { return stats.Variance(s.Rate) }

// CoV returns the coefficient of variation σ̂/μ̂ (the y/x axes of the
// paper's Figures 9, 10, 12, 13 are this quantity in percent).
func (s Series) CoV() float64 { return stats.CoV(s.Rate) }

// AutoCorrelation returns the empirical autocorrelation of the rate at lags
// 0..maxLag bins.
func (s Series) AutoCorrelation(maxLag int) []float64 {
	return stats.AutoCorrelation(s.Rate, maxLag)
}

// Downsample returns a series with bins of k·Delta, averaging groups of k
// consecutive bins (any remainder bins are dropped). The predictor samples
// the rate at multi-second periods this way without re-binning packets.
func (s Series) Downsample(k int) (Series, error) {
	if k <= 0 {
		return Series{}, fmt.Errorf("timeseries: downsample factor must be > 0, got %d", k)
	}
	if k == 1 {
		return Series{Delta: s.Delta, Rate: append([]float64(nil), s.Rate...)}, nil
	}
	n := len(s.Rate) / k
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < k; j++ {
			sum += s.Rate[i*k+j]
		}
		out[i] = sum / float64(k)
	}
	return Series{Delta: s.Delta * float64(k), Rate: out}, nil
}
