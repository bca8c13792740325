// Package trace defines the packet-record model shared by the whole
// measurement pipeline and implements a synthetic backbone trace generator
// that substitutes for the paper's proprietary Sprint OC-12 captures.
//
// The generator realises exactly the stochastic structure the paper models
// and measures (§III, §IV):
//
//   - flow arrivals form a homogeneous Poisson process of rate λ
//     (Assumption 1);
//   - flow sizes, rates and shot shapes are iid across flows
//     (Assumption 2);
//   - within a flow, packets are paced so the instantaneous rate follows a
//     power-function shot x(t) = a·t^b (Figure 7): b = 0 gives constant-rate
//     (UDP-like) flows, b ≈ 1..2 mimics TCP's ramp-up;
//   - destination addresses concentrate on Zipf-popular /24 prefixes, so
//     prefix aggregation (the paper's second flow definition) merges many
//     5-tuple flows, as observed on real backbones.
//
// Packets are produced in global timestamp order with bounded memory using
// a calendar-queue player over compact flow programs, so arbitrarily long
// traces stream in O(active flows) space.
package trace

import (
	"fmt"
	"iter"
	"math"

	"repro/internal/dist"
	"repro/internal/netpkt"
)

// Record is one captured packet: a timestamp plus the decoded 44-byte
// header. Time is in seconds since the trace origin (the paper's traces use
// absolute timestamps; a float64 second offset keeps arithmetic simple and
// is exact to sub-microsecond over multi-hour traces).
type Record struct {
	Time float64
	Hdr  netpkt.Header
}

// Bits returns the wire size of the packet in bits (the unit the model's
// rates use).
func (r Record) Bits() float64 { return float64(r.Hdr.TotalLen) * 8 }

// Config parameterises the synthetic trace generator.
type Config struct {
	// Duration of the trace in seconds.
	Duration float64
	// Lambda is the flow arrival rate (flows per second), the λ of the model.
	Lambda float64
	// SizeBytes samples flow sizes S in bytes (heavy-tailed in practice).
	SizeBytes dist.Sampler
	// RateBps samples the average flow rate S/D in bits per second; the
	// flow duration is derived as D = 8·S / rate.
	RateBps dist.Sampler
	// ShotB samples the power-shot exponent b per flow. Use dist.Constant
	// for a pure shape (0 rectangular, 1 triangular, 2 parabolic).
	ShotB dist.Sampler
	// PktBytes is the maximum packet payload+header size in bytes (wire
	// MTU); flows are chopped into packets of this size with a final
	// partial packet. Default 1500.
	PktBytes int
	// Prefixes is the number of distinct /24 destination prefixes sessions
	// draw from (uniformly). Default 65536 — a backbone link sees a huge
	// destination diversity, so no single /24 stays continuously active.
	Prefixes int
	// FlowsPerSession is the mean of the geometric number of 5-tuple flows
	// a session sends to its destination prefix (default 8). Sessions are
	// what make the /24-prefix flow definition aggregate: consecutive
	// flows of a session land within the 60 s timeout and merge into one
	// prefix flow, giving the order-of-magnitude flow-count reduction the
	// paper reports (§VI-A). Set to 1 for plain independent flows.
	FlowsPerSession float64
	// SessionFlowGapSec is the mean (exponential) gap between consecutive
	// flow starts within a session (default 1 s; must stay below the flow
	// timeout for aggregation to happen).
	SessionFlowGapSec float64
	// PopularFraction is the share of sessions addressed to a small tier
	// of popular destination prefixes (default 0.45). Every real backbone
	// link carries a few /24s — CDNs, large sites — that stay continuously
	// active; under the prefix flow definition they form large, nearly
	// constant-rate aggregates whose S²/D dominates the model inputs, which
	// is what makes the rectangular shot fit prefix flows in the paper's
	// Figure 12. Set to 0 to disable the tier.
	PopularFraction float64
	// PopularPrefixes is the size of the popular tier (default 32).
	PopularPrefixes int
	// UDPFraction is the fraction of flows labelled UDP; the rest are TCP.
	// The label only affects the protocol byte (the model is protocol
	// agnostic, which is the point of the paper), not the pacing.
	UDPFraction float64
	// MinDuration clamps pathologically short flows (extremely high rate
	// draw on a tiny flow), which would otherwise put all packets in one
	// burst. Default 10 ms.
	MinDuration float64
	// Warmup runs the arrival process for this many seconds before the
	// trace window opens, so flows already in progress at t=0 are present
	// and the link is in its stationary regime (the model's standing
	// assumption; a monitored backbone link has been running forever).
	// Packets emitted during warm-up are discarded. Default 0.
	Warmup float64
	// Seed drives all randomness; the same Config yields the same trace.
	Seed int64
}

// withDefaults fills the zero-valued optional fields and validates the
// rest. Every float field must be finite: a NaN fails each comparison, so
// the checks are written to reject it, and an infinite duration, rate or
// warm-up would never finish.
func (c *Config) withDefaults() (Config, error) {
	out := *c
	if !(out.Duration > 0) || math.IsInf(out.Duration, 0) {
		return out, fmt.Errorf("trace: Duration must be finite and > 0, got %g", out.Duration)
	}
	if !(out.Lambda > 0) || math.IsInf(out.Lambda, 0) {
		return out, fmt.Errorf("trace: Lambda must be finite and > 0, got %g", out.Lambda)
	}
	if out.SizeBytes == nil || out.RateBps == nil || out.ShotB == nil {
		return out, fmt.Errorf("trace: SizeBytes, RateBps and ShotB samplers are required")
	}
	if out.PktBytes == 0 {
		out.PktBytes = 1500
	}
	if out.PktBytes < 40 {
		return out, fmt.Errorf("trace: PktBytes must be >= 40, got %d", out.PktBytes)
	}
	if out.PktBytes > 65535 {
		// The IPv4 TotalLen field is 16-bit; a larger MTU would silently
		// truncate every emitted header (and the byte accounting with it).
		return out, fmt.Errorf("trace: PktBytes must be <= 65535, got %d", out.PktBytes)
	}
	if out.Prefixes == 0 {
		out.Prefixes = 65536
	}
	if out.Prefixes < 1 || out.Prefixes > 1<<20 {
		return out, fmt.Errorf("trace: Prefixes out of range: %d", out.Prefixes)
	}
	if out.FlowsPerSession == 0 {
		out.FlowsPerSession = 8
	}
	if !(out.FlowsPerSession >= 1) || math.IsInf(out.FlowsPerSession, 0) {
		return out, fmt.Errorf("trace: FlowsPerSession must be finite and >= 1, got %g", out.FlowsPerSession)
	}
	if out.SessionFlowGapSec == 0 {
		out.SessionFlowGapSec = 1
	}
	if !(out.SessionFlowGapSec >= 0) || math.IsInf(out.SessionFlowGapSec, 0) {
		return out, fmt.Errorf("trace: SessionFlowGapSec must be finite and >= 0, got %g", out.SessionFlowGapSec)
	}
	if out.PopularFraction == 0 {
		out.PopularFraction = 0.45
	}
	if !(out.PopularFraction >= 0 && out.PopularFraction <= 1) {
		return out, fmt.Errorf("trace: PopularFraction must be in [0,1], got %g", out.PopularFraction)
	}
	if out.PopularPrefixes == 0 {
		out.PopularPrefixes = 32
	}
	if out.PopularPrefixes < 1 || out.PopularPrefixes >= out.Prefixes {
		return out, fmt.Errorf("trace: PopularPrefixes must be in [1, Prefixes), got %d", out.PopularPrefixes)
	}
	if !(out.UDPFraction >= 0 && out.UDPFraction <= 1) {
		return out, fmt.Errorf("trace: UDPFraction must be in [0,1], got %g", out.UDPFraction)
	}
	if out.MinDuration == 0 {
		out.MinDuration = 0.01
	}
	if !(out.MinDuration >= 0) || math.IsInf(out.MinDuration, 0) {
		return out, fmt.Errorf("trace: MinDuration must be finite and >= 0, got %g", out.MinDuration)
	}
	if !(out.Warmup >= 0) || math.IsInf(out.Warmup, 0) {
		return out, fmt.Errorf("trace: Warmup must be finite and >= 0, got %g", out.Warmup)
	}
	return out, nil
}

// Generator produces the packets of one synthetic trace in time order.
// Flow arrivals follow a Poisson cluster (session) process: sessions arrive
// Poisson at rate Lambda/FlowsPerSession, and each session emits a
// geometric number of flows to one destination prefix, spaced by
// exponential gaps. The superposition of many concurrent sessions keeps the
// aggregate flow arrival process close to Poisson (the paper's Figures 3-4
// observation), while the session structure gives the /24-prefix definition
// its finite, aggregated flows.
//
// The generator is the serial face of the two-phase design: a programSource
// (phase 1) makes every random draw in admission order, and a pull-based
// player (phase 2) turns the resulting flow programs into packets with no
// RNG at all, fast-forwarding every flow past the warm-up so discarded
// packets are never synthesised. StreamParallelBlocksCtx runs the same two
// phases with the synthesis sharded across workers; Checkpoints replays any
// sub-window of it from the nearest checkpoint. All three produce
// bit-identical packet streams.
type Generator struct {
	cfg   Config
	src   *programSource
	pl    player
	stats Summary
}

// Summary aggregates what the generator produced; the per-trace rows of the
// paper's Table I are derived from it.
type Summary struct {
	Flows       int64
	Packets     int64
	Bytes       int64
	Duration    float64
	AvgRateBps  float64
	FlowRate    float64 // realised flow arrival rate per second
	OnePktFlows int64   // flows emitted as a single packet (discarded by the pipeline)
}

// NewGenerator validates cfg and returns a ready generator.
func NewGenerator(cfg Config) (*Generator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	src, err := newProgramSource(c)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	g := &Generator{cfg: c, src: src}
	horizon := c.Warmup + c.Duration
	// The player's window is the emitted part of the timeline: flows are
	// fast-forwarded past the warm-up in O(1) (closed-form shot inverse), so
	// warm-up packets — generated-and-discarded by the pre-player design —
	// cost nothing at all. Flow truncation at the horizon is the window's
	// upper bound, exactly like a capture stopping.
	g.pl.initPlayer(c.Warmup, horizon, estimateEvents(c.Duration, c.Lambda),
		newSourceFeed(src, horizon, &g.pl))
	return g, nil
}

// Next returns the next packet in time order. ok is false once the trace
// horizon is reached. Record times are relative to the end of the warm-up
// period, i.e. they lie in [0, Duration).
func (g *Generator) Next() (rec Record, ok bool) {
	t, pkt, hdr, ok := g.pl.step()
	if !ok {
		// The player drained its feed to the horizon, so the phase-1 flow
		// counters are final; snapshot the derived rates (idempotent).
		g.stats.Duration = g.cfg.Duration
		if g.cfg.Duration > 0 {
			g.stats.AvgRateBps = float64(g.stats.Bytes) * 8 / g.cfg.Duration
			g.stats.FlowRate = float64(g.src.flows) / g.cfg.Duration
		}
		return Record{}, false
	}
	hdr.TotalLen = uint16(pkt)
	g.stats.Packets++
	g.stats.Bytes += int64(pkt)
	return Record{Time: t - g.cfg.Warmup, Hdr: hdr}, true
}

// Stats returns the running summary; final once Next has returned ok=false.
func (g *Generator) Stats() Summary {
	s := g.stats
	s.Flows = g.src.flows
	s.OnePktFlows = g.src.onePkt
	return s
}

// Records returns a single-use iterator over the remaining packets of the
// trace, in time order. It is the range-over-func face of Next: ranging to
// completion drains the generator and finalises Stats. Breaking early leaves
// the generator resumable.
func (g *Generator) Records() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		for {
			r, ok := g.Next()
			if !ok || !yield(r) {
				return
			}
		}
	}
}

// GenerateAll materialises the whole trace in memory. Intended for tests and
// single-interval reference figures (an interval at the default scale is a
// few hundred thousand records). Long traces should use
// StreamParallelBlocksCtx or Records.
func GenerateAll(cfg Config) ([]Record, Summary, error) {
	// Validate (via NewGenerator) before sizing the slice: an invalid
	// Duration or Lambda would turn the capacity estimate negative.
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, Summary{}, err
	}
	// ~8 packets per flow at the default mix; clamped so a huge (or
	// overflowing) Duration·Lambda product cannot turn into a bogus
	// allocation — append growth covers anything beyond the clamp.
	est := capacityEstimate(cfg.Duration * cfg.Lambda * 8)
	recs := make([]Record, 0, est)
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	return recs, g.Stats(), nil
}
