package trace

import (
	"fmt"

	"repro/internal/dist"
)

// The paper's Table I lists seven OC-12 (622 Mb/s) traces with average link
// utilisations from 26 to 262 Mb/s and lengths from 6 to 39.5 hours. We
// reproduce the suite at a configurable scale: the default link is 100 Mb/s
// and the default analysis interval 120 s (the paper uses 30 minutes).
// Utilisation *fractions* are preserved exactly, and the number of analysis
// intervals per trace is proportional to each paper trace's length, so the
// three utilisation clusters of Figures 9-13 appear with the same relative
// weights. Measured-vs-model CoV comparisons survive this rescaling: the
// model's CoV, √(λ·K(b)·E[S²/D])/(λ·E[S]), depends only on λ and the
// per-flow (S, D) law, never on the link's absolute capacity.

// PaperLinkBps is the OC-12 line rate of the monitored links.
const PaperLinkBps = 622e6

// TableIEntry describes one row of the paper's Table I.
type TableIEntry struct {
	Date     string
	Length   string  // as printed in the paper
	Hours    float64 // trace length in hours
	AvgMbps  float64 // average utilisation reported in the paper
	SeedBase int64
}

// TableI is the paper's trace inventory, in row order.
var TableI = []TableIEntry{
	{Date: "Nov 8th, 2001", Length: "7h", Hours: 7, AvgMbps: 243, SeedBase: 100},
	{Date: "Nov 8th, 2001", Length: "10h", Hours: 10, AvgMbps: 180, SeedBase: 200},
	{Date: "Nov 8th, 2001", Length: "6h", Hours: 6, AvgMbps: 262, SeedBase: 300},
	{Date: "Nov 8th, 2001", Length: "39h 30m", Hours: 39.5, AvgMbps: 26, SeedBase: 400},
	{Date: "Sep 5th, 2001", Length: "10h", Hours: 10, AvgMbps: 136, SeedBase: 500},
	{Date: "Sep 5th, 2001", Length: "7h", Hours: 7, AvgMbps: 187, SeedBase: 600},
	{Date: "Sep 5th, 2001", Length: "16h", Hours: 16, AvgMbps: 72, SeedBase: 700},
}

// SuiteOptions scales the synthetic reproduction of Table I.
type SuiteOptions struct {
	// LinkBps is the scaled link capacity (default 100e6). Utilisation
	// fractions of Table I are applied to it.
	LinkBps float64
	// IntervalSec is the analysis-interval length (default 120; the paper
	// uses 1800).
	IntervalSec float64
	// IntervalsPerHour sets how many analysis intervals represent one paper
	// hour of trace (default 2; the paper has 2 per hour as well, since its
	// intervals are 30 minutes). Lower it for quick runs.
	IntervalsPerHour float64
	// MaxIntervals caps the per-trace interval count (0 = no cap). The
	// 39.5 h trace dominates run time otherwise.
	MaxIntervals int
	// Seed offsets all per-trace seeds, so independent replications of the
	// whole suite are possible.
	Seed int64
}

func (o *SuiteOptions) withDefaults() SuiteOptions {
	out := *o
	if out.LinkBps == 0 {
		out.LinkBps = 100e6
	}
	if out.IntervalSec == 0 {
		out.IntervalSec = 120
	}
	if out.IntervalsPerHour == 0 {
		out.IntervalsPerHour = 2
	}
	return out
}

// suiteMeanFlowRateBps is the mean of the suite's per-flow average-rate
// distribution, chosen so flow durations sit well above the 200 ms
// averaging interval while the lowest-utilisation trace keeps a high CoV.
const suiteMeanFlowRateBps = 80e3

// suiteShotB is the suite's per-flow shot-exponent distribution:
// TCP-like super-linear ramp-ups whose fitted power b̂ centres near 2,
// matching the paper's Figure 11.
var suiteShotB dist.Sampler = dist.Uniform{Lo: 1.5, Hi: 2.5}

// TraceSpec is one scaled trace of the suite, ready to generate.
type TraceSpec struct {
	Name        string
	Entry       TableIEntry
	TargetBps   float64 // scaled average utilisation
	Intervals   int     // number of analysis intervals
	IntervalSec float64
	Lambda      float64 // flow arrival rate implied by TargetBps
	cfg         Config
}

// Config returns the generator configuration producing the whole trace
// (Intervals × IntervalSec seconds).
func (s TraceSpec) Config() Config { return s.cfg }

// FlowSizeDist returns the flow-size sampler shared by the whole suite:
// 30 % "mice" (40..1500 bytes, producing the single-packet flows the
// paper's methodology discards) and 70 % heavy-tailed "elephants"
// (bounded Pareto, α = 1.3, capped at 300 kB so the largest flows stay
// shorter than a scaled analysis interval).
func FlowSizeDist() (dist.Sampler, error) {
	mice, err := dist.NewUniform(40, 1500)
	if err != nil {
		return nil, err
	}
	elephants, err := dist.NewBoundedPareto(1.3, 1500, 3e5)
	if err != nil {
		return nil, err
	}
	return dist.NewMixture([]float64{0.3, 0.7}, []dist.Sampler{mice, elephants})
}

// FlowRateDist returns the per-flow average-rate sampler: lognormal with the
// given mean and a coefficient of variation of 1.5 (accesses range from
// dial-up to LAN speeds).
func FlowRateDist(meanBps float64) (dist.Sampler, error) {
	return dist.LognormalFromMoments(meanBps, 1.5)
}

// customMeanFlowRateBps is the mean per-flow rate of CustomConfig's traces.
const customMeanFlowRateBps = 283e3

// CustomConfig returns the generator configuration of a trace outside the
// suite: the suite's flow sizes, lognormal flow rates of mean 283 kb/s, and
// the same shot exponent b for every flow. Validation is left to the
// generator.
func CustomConfig(duration, lambda, b float64, seed int64) (Config, error) {
	size, err := FlowSizeDist()
	if err != nil {
		return Config{}, err
	}
	rate, err := FlowRateDist(customMeanFlowRateBps)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Duration:  duration,
		Lambda:    lambda,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: b},
		Seed:      seed,
	}, nil
}

// DefaultSuite builds the seven scaled traces of Table I.
func DefaultSuite(opts SuiteOptions) ([]TraceSpec, error) {
	o := opts.withDefaults()
	sizeDist, err := FlowSizeDist()
	if err != nil {
		return nil, fmt.Errorf("trace: suite size distribution: %w", err)
	}
	rateDist, err := FlowRateDist(suiteMeanFlowRateBps)
	if err != nil {
		return nil, fmt.Errorf("trace: suite rate distribution: %w", err)
	}
	meanSizeBits := sizeDist.Mean() * 8
	specs := make([]TraceSpec, 0, len(TableI))
	for i, e := range TableI {
		target := e.AvgMbps / (PaperLinkBps / 1e6) * o.LinkBps
		intervals := int(e.Hours*o.IntervalsPerHour + 0.5)
		if intervals < 1 {
			intervals = 1
		}
		if o.MaxIntervals > 0 && intervals > o.MaxIntervals {
			intervals = o.MaxIntervals
		}
		lambda := target / meanSizeBits
		// The popular-prefix tier must scale with load: a busier link sees
		// proportionally more continuously-active /24 destinations, each
		// with a similar traffic share. An always-on tier of P prefixes
		// contributes q²R²/P to λ·E[S²/D] (independent of the interval
		// length: each prefix's split flow has S ∝ T and D = T), while the
		// measured variance grows linearly in R, so scale invariance of the
		// /24 figures needs P ∝ λ. The constant 13 was calibrated once
		// (λ = 400 flows/s, 32 popular prefixes) and verified at 20 and
		// 100 Mb/s link scales.
		popular := int(lambda/13 + 0.5)
		if popular < 2 {
			popular = 2
		}
		if popular > 4096 {
			popular = 4096
		}
		spec := TraceSpec{
			Name:        fmt.Sprintf("trace-%d", i+1),
			Entry:       e,
			TargetBps:   target,
			Intervals:   intervals,
			IntervalSec: o.IntervalSec,
			Lambda:      lambda,
			cfg: Config{
				Duration:        float64(intervals) * o.IntervalSec,
				Lambda:          lambda,
				SizeBytes:       sizeDist,
				RateBps:         rateDist,
				ShotB:           suiteShotB,
				UDPFraction:     0.1,
				PopularPrefixes: popular,
				Seed:            e.SeedBase + o.Seed,
			},
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
