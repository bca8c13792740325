// Package gen implements the paper's §VII-C application: generation of
// synthetic backbone traffic from a fitted shot-noise model, for use in
// simulation tools. Flows arrive as a Poisson process at the model's λ;
// each flow bootstraps its (S, D) pair from the model's empirical flow
// population and transmits with the model's shot. Both a fluid rate series
// (exact bin integrals of the shots) and a packet stream are produced.
//
// The paper's key point is that naive generation at a constant rate S/D
// (rectangular shots) reproduces the mean but under-estimates the traffic's
// variance; the shot component is what carries the second-order structure.
package gen

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/rng"
	"repro/internal/netpkt"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Config parameterises the generator.
type Config struct {
	// Lambda is the flow arrival rate (flows/s).
	Lambda float64
	// Shot is the flow rate function to transmit with.
	Shot core.Shot
	// Pop is the empirical (S, D) population to bootstrap from.
	Pop *core.FlowPop
	// Duration of the generated window in seconds.
	Duration float64
	// Warmup runs the arrival process this long before the window so the
	// generated process is stationary from the first sample. Default: the
	// 99th-percentile flow duration is a good choice; 0 disables it.
	Warmup float64
	// Seed drives all randomness.
	Seed int64
}

// FromModel builds a Config from a fitted model.
func FromModel(m *core.Model, duration, warmup float64, seed int64) Config {
	return Config{
		Lambda:   m.Lambda,
		Shot:     m.Shot,
		Pop:      m.Pop,
		Duration: duration,
		Warmup:   warmup,
		Seed:     seed,
	}
}

// validate rejects a config the generation loops cannot finish: a NaN or
// infinite Lambda, Duration or Warmup would spin the arrival loop forever or
// size the rate series past any allocation.
func (c *Config) validate() error {
	if !(c.Lambda > 0) || math.IsInf(c.Lambda, 0) {
		return fmt.Errorf("gen: Lambda must be finite and > 0, got %g", c.Lambda)
	}
	if c.Shot == nil {
		return fmt.Errorf("gen: nil Shot")
	}
	if c.Pop.Len() == 0 {
		return fmt.Errorf("gen: empty flow population")
	}
	if !(c.Duration > 0) || math.IsInf(c.Duration, 0) {
		return fmt.Errorf("gen: Duration must be finite and > 0, got %g", c.Duration)
	}
	if !(c.Warmup >= 0) || math.IsInf(c.Warmup, 0) {
		return fmt.Errorf("gen: Warmup must be finite and >= 0, got %g", c.Warmup)
	}
	return nil
}

// FluidSeries generates the exact fluid rate process sampled over bins of
// length delta: each flow's shot is integrated bin-by-bin through the
// cumulative transmission curve, so no packetisation noise enters. This is
// the reference signal for validating the generator against the model's
// moments.
func FluidSeries(cfg Config, delta float64) (timeseries.Series, error) {
	if err := cfg.validate(); err != nil {
		return timeseries.Series{}, err
	}
	if !(delta > 0) || delta > cfg.Duration {
		return timeseries.Series{}, fmt.Errorf("gen: need 0 < delta <= duration")
	}
	r := rng.New(cfg.Seed)
	pp, err := dist.NewPoissonProcess(cfg.Lambda, r)
	if err != nil {
		return timeseries.Series{}, fmt.Errorf("gen: %w", err)
	}
	n := int(cfg.Duration / delta)
	bits := make([]float64, n)
	horizon := cfg.Warmup + cfg.Duration
	for {
		t := pp.Next()
		if t >= horizon {
			break
		}
		i := r.Intn(cfg.Pop.Len())
		s, d := cfg.Pop.S[i], cfg.Pop.D[i]
		start := t - cfg.Warmup // window-relative arrival
		end := start + d
		if end <= 0 {
			continue
		}
		lo := int(math.Floor(start / delta))
		if lo < 0 {
			lo = 0
		}
		hi := int(math.Ceil(end / delta))
		if hi > n {
			hi = n
		}
		prev := cfg.Shot.Cumulative(s, d, float64(lo)*delta-start)
		for k := lo; k < hi; k++ {
			cum := cfg.Shot.Cumulative(s, d, float64(k+1)*delta-start)
			bits[k] += cum - prev
			prev = cum
		}
	}
	for k := range bits {
		bits[k] /= delta
	}
	return timeseries.Series{Delta: delta, Rate: bits}, nil
}

// Packets generates a packet-level trace: flow arrivals and (S, D) as in
// FluidSeries, with each flow's bytes chopped into pktBytes-sized packets
// paced on the shot's inverse cumulative curve. The shot must be a
// core.PowerShot (the family §V-D fits); general shots would need numeric
// inversion. Packets reach fn in timestamp order as pooled blocks that fn
// borrows until it returns (trace.PlayPrograms' contract); an fn error
// stops generation and is returned.
//
// Generation rides the trace package's shared program player: each arrival
// becomes a compact trace.FlowProgram pulled on demand, and the player
// emits packets in (time, flow admission) order directly — no trace-length
// event buffer and no final sort; working memory is O(concurrently active
// flows). Warm-up flows fast-forward to their first in-window packet in
// O(1) instead of generating-and-discarding their early packets.
func Packets(cfg Config, pktBytes int, fn func(*trace.Block) error) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	ps, ok := cfg.Shot.(core.PowerShot)
	if !ok {
		return fmt.Errorf("gen: packet generation requires a PowerShot, got %T", cfg.Shot)
	}
	if pktBytes < 40 {
		return fmt.Errorf("gen: pktBytes must be >= 40, got %d", pktBytes)
	}
	r := rng.New(cfg.Seed)
	pp, err := dist.NewPoissonProcess(cfg.Lambda, r)
	if err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	horizon := cfg.Warmup + cfg.Duration
	invBp1 := 1 / (ps.B + 1)
	var flowID uint32
	// next draws arrivals lazily in Start order (a plain Poisson process, so
	// arrival order is Start order — the player feed's one requirement).
	next := func() (trace.FlowProgram, bool) {
		for {
			t := pp.Next()
			if t >= horizon {
				return trace.FlowProgram{}, false
			}
			i := r.Intn(cfg.Pop.Len())
			s, d := cfg.Pop.S[i], cfg.Pop.D[i]
			if (t-cfg.Warmup)+d <= 0 {
				continue // entirely inside the warm-up
			}
			flowID++
			sizeBytes := int(s / 8)
			if sizeBytes < 40 {
				sizeBytes = 40
			}
			p := trace.FlowProgram{
				Index:    flowID,
				Start:    t,
				Duration: d,
				SizeB:    sizeBytes,
				InvBp1:   invBp1,
				PktBytes: pktBytes,
			}
			p.Src, p.Dst = synthHeader(flowID)
			return p, true
		}
	}
	// ~8 packets per flow sizes the player's bucket grid (which caps it).
	est := int(math.Min(cfg.Lambda*cfg.Duration*8, math.MaxInt32))
	return trace.PlayPrograms(cfg.Warmup, horizon, est, next, fn)
}

// synthHeader builds a distinct 5-tuple per generated flow, packed into the
// two header words its packets carry.
func synthHeader(id uint32) (src, dst uint64) {
	return netpkt.Header{
		SrcIP:    netpkt.AddrFromUint32(0x0A00_0000 | (id*2654435761)>>8),
		DstIP:    netpkt.AddrFromUint32(0xAC10_0000 | (id % 65536 << 8) | (id%253 + 1)),
		Protocol: netpkt.ProtoTCP,
		SrcPort:  uint16(1024 + id%60000),
		DstPort:  443,
		TTL:      64,
	}.Packed()
}
