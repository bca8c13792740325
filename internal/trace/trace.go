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
// Flow arrivals follow a Poisson cluster (session) process: sessions arrive
// Poisson at rate Lambda/FlowsPerSession, and each session emits a geometric
// number of flows to one destination prefix, spaced by exponential gaps. The
// superposition of many concurrent sessions keeps the aggregate flow
// arrival process close to Poisson (the paper's Figures 3-4 observation),
// while the session structure gives the /24-prefix definition its finite,
// aggregated flows.
//
// Synthesis runs in two phases. Phase 1 (programSource) makes every random
// draw in admission order and emits compact flow programs; phase 2 (the
// player) turns them into packets with no RNG at all, in global timestamp
// order, through a calendar queue, so arbitrarily long traces stream in
// O(active flows) space. Packets leave phase 2 only as pooled Blocks:
// StreamParallelBlocksCtx plays them serially or sharded across workers,
// and Checkpoints replays any sub-window from the nearest checkpoint as
// Records. Every path yields the same bits.
package trace

import (
	"fmt"
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
	// PopularPrefixes is the size of the tier of popular destination
	// prefixes that popularFraction of the sessions address (default 32).
	PopularPrefixes int
	// UDPFraction is the fraction of flows labelled UDP; the rest are TCP.
	// The label only affects the protocol byte (the model is protocol
	// agnostic, which is the point of the paper), not the pacing.
	UDPFraction float64
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
	if out.PopularPrefixes == 0 {
		out.PopularPrefixes = 32
	}
	if out.PopularPrefixes < 1 || out.PopularPrefixes >= out.Prefixes {
		return out, fmt.Errorf("trace: PopularPrefixes must be in [1, Prefixes), got %d", out.PopularPrefixes)
	}
	if !(out.UDPFraction >= 0 && out.UDPFraction <= 1) {
		return out, fmt.Errorf("trace: UDPFraction must be in [0,1], got %g", out.UDPFraction)
	}
	if !(out.Warmup >= 0) || math.IsInf(out.Warmup, 0) {
		return out, fmt.Errorf("trace: Warmup must be finite and >= 0, got %g", out.Warmup)
	}
	return out, nil
}

// Summary aggregates what one synthesis pass produced; the per-trace rows of
// the paper's Table I are derived from it.
type Summary struct {
	Flows       int64
	Packets     int64
	Bytes       int64
	Duration    float64
	AvgRateBps  float64
	FlowRate    float64 // realised flow arrival rate per second
	OnePktFlows int64   // flows emitted as a single packet (discarded by the pipeline)
}
