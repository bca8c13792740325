package trace

import (
	"math"

	"repro/internal/dist"
	"repro/internal/dist/rng"
	"repro/internal/netpkt"
)

// This file is phase 1 of the two-phase generator: a cheap, serial, RNG-only
// pass over the session/arrival process that emits compact flow programs.
// All of the generator's randomness lives in the per-flow draws — packet
// emission inside a flow is fully deterministic given its program (the
// power-shot pacing x(t) = a·t^b fixes every packet time in closed form) —
// so everything downstream of this pass (the pull-based player, the sharded
// synthesiser, checkpointed window replay) is RNG-free and can be reordered,
// sharded or replayed freely without touching the random stream.
//
// Randomness comes from the rng core's splittable streams: the trace seed
// fans out into one stream for the session structure (arrivals, prefix
// choice, flow counts, gaps, protocol label) and one per flow-attribute
// sampler (size, rate, shot exponent). Per-flow attributes are drawn in
// blocks through the samplers' batched face, so the interface dispatch of a
// Config sampler field is paid once per attrBatch flows instead of once per
// flow — and because each sampler owns its stream, the block refills never
// perturb any other draw in the trace.

// FlowProgram is the complete deterministic description of one flow: the
// handful of per-flow draws phase 1 makes, from which every packet time and
// size follows in closed form. Times are on the generator clock (0 = start
// of warm-up; packets are emitted at clock minus Warmup).
type FlowProgram struct {
	// Index is the 1-based admission index of the flow (the generator's flow
	// id); it is the deterministic tie-breaker for packets of different
	// flows that land on exactly equal times.
	Index uint32
	// Start is the flow arrival time T on the generator clock.
	Start float64
	// Duration is the flow duration D in seconds.
	Duration float64
	// SizeB is the flow size S in bytes.
	SizeB int
	// InvBp1 is 1/(b+1) for the flow's shot exponent b.
	InvBp1 float64
	// PktBytes is the wire MTU the flow is chopped into.
	PktBytes int
	// Src and Dst are the flow's constant header, packed once as the two
	// words of netpkt.Header.Packed that every packet of the flow carries
	// into a Block (the wire length travels in the block's size column).
	Src, Dst uint64
}

// End returns Start + Duration, an upper bound on the flow's packet times
// (the last packet begins strictly before it).
func (p *FlowProgram) End() float64 { return p.Start + p.Duration }

// NumPackets returns the number of packets the flow is chopped into.
func (p *FlowProgram) NumPackets() int {
	return (p.SizeB + p.PktBytes - 1) / p.PktBytes
}

// powFrac computes frac^e for frac in [0, 1], e > 0, via the exp∘log
// identity — about twice as fast as math.Pow, whose generality (negative
// bases, integer exponents, ±Inf) the pacing never needs. Packet-time
// determinism requires one canonical expression shared by every path, not
// last-ulp agreement with Pow, and this is that expression.
func powFrac(frac, e float64) float64 {
	if frac == 0 {
		return 0
	}
	return math.Exp(e * math.Log(frac))
}

// offsetAt returns the emission offset (from the flow start) of the packet
// beginning at cumulative byte position sentB: the shot x(t) = a·t^b has
// transmitted fraction (t/D)^(b+1) of S by offset t, so byte position c is
// reached at t = D·(c/S)^(1/(b+1)). This is the one expression every
// synthesis path computes packet times with, so their float64 results are
// bit-identical by construction.
func (p *FlowProgram) offsetAt(sentB int) float64 {
	frac := float64(sentB) / float64(p.SizeB)
	return p.Duration * powFrac(frac, p.InvBp1)
}

// PacketTime returns the emission time of packet k (0-based) on the
// generator clock.
func (p *FlowProgram) PacketTime(k int) float64 {
	return p.Start + p.offsetAt(k*p.PktBytes)
}

// FirstPacketNotBefore returns the smallest packet index k with
// PacketTime(k) >= t (NumPackets when every packet precedes t). The power
// shot inverts in closed form, so the answer costs O(1): the inverse gives a
// candidate within a float rounding of the truth and the exact PacketTime
// comparison nudges it onto the boundary. This is what lets a timeline shard
// or a checkpointed window jump straight to its first packet instead of
// replaying the flow's prefix.
func (p *FlowProgram) FirstPacketNotBefore(t float64) int {
	n := p.NumPackets()
	if t <= p.Start {
		return 0
	}
	if t >= p.End() {
		return n
	}
	// Invert the pacing: offset >= t-Start ⇔ k·PktBytes/SizeB >= ((t-Start)/D)^(b+1).
	frac := powFrac((t-p.Start)/p.Duration, 1/p.InvBp1)
	k := int(frac * float64(p.SizeB) / float64(p.PktBytes))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	// The round trip through Pow can be off by an ulp either way; settle with
	// the authoritative forward formula.
	for k > 0 && p.PacketTime(k-1) >= t {
		k--
	}
	for k < n && p.PacketTime(k) < t {
		k++
	}
	return k
}

// maxSessionFlows caps the geometric draw of flows per session. The cap is
// astronomically beyond any realistic draw (mean 8 reaches it with
// probability (7/8)^65536), so it only matters as a guard against a
// pathological FlowsPerSession sending the inverse transform off to
// infinity.
const maxSessionFlows = 1 << 16

// geometric draws a geometric count with the given mean (support 1, 2, ...,
// capped at maxSessionFlows) by inverting the CDF: one uniform draw instead
// of a mean-long Bernoulli walk.
func geometric(mean float64, r *rng.Rand) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	// N = 1 + ⌊ln(1-U)/ln(1-p)⌋ is Geometric(p) on {1, 2, ...}.
	ratio := math.Log1p(-r.Float64()) / math.Log1p(-p)
	if ratio >= maxSessionFlows-1 || math.IsNaN(ratio) {
		return maxSessionFlows
	}
	return 1 + int(ratio)
}

// dstPorts is the destination-port mix flows cycle through. A package-level
// array keeps newProgram from allocating the slice literal once per flow.
var dstPorts = [...]uint16{80, 443, 25, 53, 8080}

// Stream ids of the splittable rng fan-out. The session-structure stream
// drives everything whose draw count shapes the arrival process; each
// attribute sampler gets a private stream so its block refills are invisible
// to the others.
const (
	streamSession = iota
	streamSize
	streamRate
	streamShot
)

// attrBatch is how many per-flow attribute draws one block refill makes.
// Big enough that the sampler interface dispatch amortises to noise per
// flow, small enough that a tiny trace's wasted tail draws cost microseconds.
const attrBatch = 256

// attrBuf feeds one flow attribute from block refills of its own stream.
type attrBuf struct {
	s   dist.Sampler
	rng *rng.Rand
	pos int
	buf [attrBatch]float64
}

func (b *attrBuf) init(s dist.Sampler, seed int64, stream uint64) {
	b.s = s
	b.rng = rng.NewStream(seed, stream)
	b.pos = attrBatch // empty: first next() refills
}

func (b *attrBuf) next() float64 {
	if b.pos == attrBatch {
		dist.SampleN(b.s, b.buf[:], b.rng)
		b.pos = 0
	}
	v := b.buf[b.pos]
	b.pos++
	return v
}

// The generator's fixed constants.
const (
	// pktBytes is the wire MTU: flows are chopped into packets of this
	// size with a final partial packet.
	pktBytes = 1500
	// sessionFlowGapSec is the mean (exponential) gap between consecutive
	// flow starts within a session. It stays well below the 60 s flow
	// timeout, so a session's flows merge into one /24-prefix flow (§VI-A).
	sessionFlowGapSec = 1.0
	// popularFraction is the share of sessions addressed to the tier of
	// Config.PopularPrefixes popular destination prefixes. Every real
	// backbone link carries a few /24s (CDNs, large sites) that stay
	// continuously active; under the prefix flow definition they form
	// large, nearly constant-rate aggregates whose S²/D dominates the model
	// inputs, which is what makes the rectangular shot fit prefix flows in
	// the paper's Figure 12.
	popularFraction = 0.45
	// minDuration clamps pathologically short flows (an extremely high rate
	// drawn for a tiny flow), which would otherwise put all their packets
	// in one burst.
	minDuration = 0.01
)

// programSource is the phase-1 state: the session arrival process plus the
// per-flow draws, consumed strictly in admission order. The serial
// generator, the sharded synthesiser and the checkpoint index all sit on
// top of it, so their random streams are identical by construction.
type programSource struct {
	cfg      Config // defaulted
	rng      *rng.Rand
	arrivals *dist.PoissonProcess
	size     attrBuf
	rate     attrBuf
	shot     attrBuf
	nextArr  float64
	flowID   uint32
	flows    int64 // flows starting inside the measured window
	onePkt   int64 // ... of which single-packet (discarded by the pipeline)
}

// newProgramSource builds the phase-1 pass over an already-defaulted config.
func newProgramSource(c Config) (*programSource, error) {
	r := rng.NewStream(c.Seed, streamSession)
	// Sessions arrive at Lambda/FlowsPerSession so the expected flow
	// arrival rate stays Lambda.
	arr, err := dist.NewPoissonProcess(c.Lambda/c.FlowsPerSession, r)
	if err != nil {
		return nil, err
	}
	s := &programSource{cfg: c, rng: r, arrivals: arr}
	s.size.init(c.SizeBytes, c.Seed, streamSize)
	s.rate.init(c.RateBps, c.Seed, streamRate)
	s.shot.init(c.ShotB, c.Seed, streamShot)
	s.nextArr = s.arrivals.Next()
	return s, nil
}

// peekArrival returns the next session's arrival time without consuming it.
func (s *programSource) peekArrival() float64 { return s.nextArr }

// newProgram draws a fresh flow to the given destination prefix, starting at
// time t, and accounts it in the phase-1 summary counters.
func (s *programSource) newProgram(t float64, prefix uint32) FlowProgram {
	c := &s.cfg
	sizeB := int(math.Ceil(s.size.next()))
	if sizeB < 40 {
		sizeB = 40
	}
	rate := s.rate.next()
	d := float64(sizeB) * 8 / rate
	if d < minDuration {
		d = minDuration
	}
	b := s.shot.next()
	if b < 0 {
		b = 0
	}
	s.flowID++
	id := s.flowID
	proto := netpkt.ProtoTCP
	if s.rng.Float64() < c.UDPFraction {
		proto = netpkt.ProtoUDP
	}
	// Destination: 172.16.0.0/12-style space carved into /24s; host byte
	// from the flow id so flows to the same prefix still differ. The host
	// byte is parenthesised: `|` and `+` share precedence in Go, so without
	// it the +1 would bind to the whole word (id%253+1 stays in [1, 253], so
	// the addition can never carry into the prefix bits).
	dst := netpkt.AddrFromUint32(0xAC10_0000 | prefix<<8 | (id%253 + 1))
	// Source: 10.0.0.0/8 space from the flow id.
	src := netpkt.AddrFromUint32(0x0A00_0000 | (id*2654435761)>>8)
	hdr := netpkt.Header{
		SrcIP:    src,
		DstIP:    dst,
		Protocol: proto,
		SrcPort:  uint16(1024 + id%60000),
		DstPort:  dstPorts[id%uint32(len(dstPorts))],
		TTL:      64,
	}
	p := FlowProgram{
		Index:    id,
		Start:    t,
		Duration: d,
		SizeB:    sizeB,
		InvBp1:   1 / (b + 1),
		PktBytes: pktBytes,
	}
	p.Src, p.Dst = hdr.Packed()
	if t >= c.Warmup {
		s.flows++
		if p.SizeB <= pktBytes {
			s.onePkt++
		}
	}
	return p
}

// nextSession admits the next session, invoking emit once per member flow
// program in draw order (member flows starting at or past the horizon are
// cut, exactly like the capture stopping). It returns false — consuming no
// draws — once the arrival process has passed the horizon.
func (s *programSource) nextSession(horizon float64, emit func(FlowProgram)) bool {
	if s.nextArr >= horizon {
		return false
	}
	t := s.nextArr
	c := &s.cfg
	var prefix uint32
	if s.rng.Float64() < popularFraction {
		prefix = uint32(s.rng.Intn(c.PopularPrefixes))
	} else {
		prefix = uint32(c.PopularPrefixes + s.rng.Intn(c.Prefixes-c.PopularPrefixes))
	}
	n := geometric(c.FlowsPerSession, s.rng)
	start := t
	for i := 0; i < n; i++ {
		if i > 0 {
			start += s.rng.Exp() * sessionFlowGapSec
		}
		if start >= horizon {
			break
		}
		emit(s.newProgram(start, prefix))
	}
	s.nextArr = s.arrivals.Next()
	return true
}

// run drains the arrival process to the horizon, emitting every flow program
// in admission order — the whole phase-1 pass in one call.
func (s *programSource) run(horizon float64, emit func(FlowProgram)) {
	for s.nextSession(horizon, emit) {
	}
}

// collectPrograms runs the whole phase-1 pass over an already-defaulted
// config, returning every flow program in admission order plus the consumed
// source (for its summary counters).
func collectPrograms(c Config) ([]FlowProgram, *programSource, error) {
	src, err := newProgramSource(c)
	if err != nil {
		return nil, nil, err
	}
	progs := make([]FlowProgram, 0, capacityEstimate(c.Duration*c.Lambda))
	src.run(c.Warmup+c.Duration, func(p FlowProgram) {
		progs = append(progs, p)
	})
	return progs, src, nil
}

// Programs runs the phase-1 pass over cfg's full horizon and returns every
// flow program in admission order, plus a summary whose flow-level fields
// (Flows, OnePktFlows, FlowRate, Duration) are final. Packet-level fields
// are zero: packets exist only once a synthesis phase runs the programs.
// No production path calls it; it is kept for perfbench's phase-1 probe.
func Programs(cfg Config) ([]FlowProgram, Summary, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, Summary{}, err
	}
	progs, src, err := collectPrograms(c)
	if err != nil {
		return nil, Summary{}, err
	}
	sum := Summary{Flows: src.flows, OnePktFlows: src.onePkt, Duration: c.Duration}
	if c.Duration > 0 {
		sum.FlowRate = float64(sum.Flows) / c.Duration
	}
	return progs, sum, nil
}

// maxCapacityEstimate bounds how much any pre-sizing heuristic is allowed to
// reserve up front (~4M entries); beyond it, append's amortised growth is
// cheaper than the risk of a huge or overflowed allocation.
const maxCapacityEstimate = 1 << 22

// capacityEstimate clamps a float element-count estimate into [0,
// maxCapacityEstimate], guarding the int conversion against overflow on
// huge Duration·Lambda products (and against NaN, which fails every
// comparison and falls through to 0).
func capacityEstimate(est float64) int {
	if est > maxCapacityEstimate {
		return maxCapacityEstimate
	}
	if est > 0 {
		return int(est)
	}
	return 0
}
