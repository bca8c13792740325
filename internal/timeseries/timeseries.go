// Package timeseries turns a packet stream into the measured total-rate
// process of the paper's §V-F: the volume of data crossing the link is
// averaged over consecutive intervals of length Δ (the paper uses 200 ms,
// the average round-trip time), yielding a piecewise-constant rate series
// whose first two moments are compared against the model.
package timeseries

import (
	"fmt"
	"iter"

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
// One Binner is reused across intervals via Reset.
type Binner struct {
	delta    float64
	duration float64
	bits     []float64
}

// NewBinner prepares bins of length delta across [0, duration).
func NewBinner(duration, delta float64) (*Binner, error) {
	b := &Binner{}
	if err := b.Reinit(duration, delta); err != nil {
		return nil, err
	}
	return b, nil
}

// Reinit re-targets the binner to a fresh [0, duration) window with bins of
// delta, zeroing the bins and reusing their storage when it is large
// enough — the per-worker scratch path of the measurement scheduler, which
// bins thousands of intervals without reallocating.
func (b *Binner) Reinit(duration, delta float64) error {
	if !(delta > 0) {
		return fmt.Errorf("timeseries: delta must be > 0, got %g", delta)
	}
	if !(duration > 0) {
		return fmt.Errorf("timeseries: duration must be > 0, got %g", duration)
	}
	n := int(duration / delta)
	if n == 0 {
		return fmt.Errorf("timeseries: duration %g shorter than delta %g", duration, delta)
	}
	b.delta, b.duration = delta, duration
	if cap(b.bits) >= n {
		b.bits = b.bits[:n]
		clear(b.bits)
	} else {
		b.bits = make([]float64, n)
	}
	return nil
}

// Add accounts one packet of the given size at time t (relative to the
// window origin). Packets outside [0, duration) are ignored; bin boundaries
// use the convention t ∈ [kΔ, (k+1)Δ).
//
//repro:hotpath
func (b *Binner) Add(t, bits float64) {
	if t < 0 || t >= b.duration {
		return
	}
	k := int(t / b.delta)
	if k >= len(b.bits) { // guard the t == duration-ε float edge
		k = len(b.bits) - 1
	}
	b.bits[k] += bits
}

// AddRecord accounts one packet record.
func (b *Binner) AddRecord(rec trace.Record) { b.Add(rec.Time, rec.Bits()) }

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
func (b *Binner) Series() Series {
	rate := make([]float64, len(b.bits))
	for k, v := range b.bits {
		rate[k] = v / b.delta
	}
	return Series{Delta: b.delta, Rate: rate}
}

// Bin averages the packet volumes of recs over bins of length delta across
// [0, duration). Packets outside the window are ignored. It is the
// materialised-slice convenience over Binner.
func Bin(recs []trace.Record, duration, delta float64) (Series, error) {
	b, err := NewBinner(duration, delta)
	if err != nil {
		return Series{}, err
	}
	for i := range recs {
		b.AddRecord(recs[i])
	}
	return b.Series(), nil
}

// BinStream bins a record iterator (e.g. a replayable trace.Window
// sub-stream) without materialising it: the streaming counterpart of Bin.
func BinStream(recs iter.Seq[trace.Record], duration, delta float64) (Series, error) {
	b, err := NewBinner(duration, delta)
	if err != nil {
		return Series{}, err
	}
	for rec := range recs {
		b.AddRecord(rec)
	}
	return b.Series(), nil
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
