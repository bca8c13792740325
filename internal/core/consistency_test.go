package core_test

// Cross-package consistency checks tying the model to its M/G/∞ special
// case (§IV: with rectangular unit shots the total rate is the occupancy of
// an M/G/∞ queue) and the measurement pipeline's conservation properties.

import (
	"math"
	"repro/internal/dist/rng"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/mginf"
	"repro/internal/netpkt"
	"repro/internal/stats"
	"repro/internal/trace"
)

// With identical flows (S = r·d for all), rectangular shots make
// R(t) = r·N(t) where N is the M/G/∞ occupancy: the model's mean and
// variance must equal r·ρ and r²·ρ.
func TestModelReducesToMGInf(t *testing.T) {
	const (
		lambda = 40.0
		r      = 1e5 // constant flow rate, bit/s
		d      = 2.5 // constant duration
	)
	flows := make([]core.FlowSample, 100)
	for i := range flows {
		flows[i] = core.FlowSample{S: r * d, D: d}
	}
	m, err := core.NewModel(lambda, core.Rectangular, flows)
	if err != nil {
		t.Fatal(err)
	}
	q, err := mginf.New(lambda, dist.Constant{V: d})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Mean(), r*q.Load(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("mean: model %g vs r·ρ %g", got, want)
	}
	if got, want := m.Variance(), q.ConstantRateVariance(r); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("variance: model %g vs r²ρ %g", got, want)
	}
	// The M/G/∞ simulated occupancy, scaled by r, matches too.
	rng := rng.New(5)
	samples, err := q.Simulate(3000, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		samples[i] *= r
	}
	if got := stats.Mean(samples); math.Abs(got-m.Mean())/m.Mean() > 0.05 {
		t.Fatalf("simulated mean %g vs model %g", got, m.Mean())
	}
	if got := stats.PopVariance(samples); math.Abs(got-m.Variance())/m.Variance() > 0.15 {
		t.Fatalf("simulated variance %g vs model %g", got, m.Variance())
	}
}

// Theorem 2 and the spectral density describe the same second-order
// structure: numerically, Var = ∫Γ(ω)dω over the real line (Wiener-
// Khintchine at τ=0). Check with a coarse quadrature on a light model.
func TestSpectralDensityIntegratesToVariance(t *testing.T) {
	rng := rng.New(6)
	flows := make([]core.FlowSample, 40)
	for i := range flows {
		s := 1e5 * (0.5 + rng.Float64())
		flows[i] = core.FlowSample{S: s, D: 1 + rng.Float64()}
	}
	m, err := core.NewModel(25, core.Triangular, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Γ is even; integrate 2∫₀^W with W well past the shot bandwidth
	// (durations ≈ 1-2 s ⇒ bandwidth a few tens of rad/s).
	const w = 400.0
	const n = 4000
	h := w / n
	var integral float64
	for i := 0; i <= n; i++ {
		omega := float64(i) * h
		weight := h
		if i == 0 || i == n {
			weight = h / 2
		}
		integral += weight * m.SpectralDensity(omega)
	}
	integral *= 2
	if v := m.Variance(); math.Abs(integral-v)/v > 0.05 {
		t.Fatalf("∫Γ dω = %g vs variance %g", integral, v)
	}
}

// Property: flow measurement partitions packets — every packet lands in
// exactly one kept flow or one discarded record, with bytes conserved,
// for random packet sequences.
func TestFlowMeasurementConservesPackets(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rng.New(seed)
		n := int(nRaw)%200 + 2
		recs := make([]trace.Record, n)
		tm := 0.0
		for i := range recs {
			tm += rng.Exp() * 2
			recs[i] = trace.Record{
				Time: tm,
				Hdr: netpkt.Header{
					SrcIP:    netpkt.IPv4Addr{10, 0, 0, byte(rng.Intn(5))},
					DstIP:    netpkt.IPv4Addr{172, 16, byte(rng.Intn(3)), byte(rng.Intn(4))},
					Protocol: netpkt.ProtoTCP,
					SrcPort:  uint16(rng.Intn(3)),
					DstPort:  80,
					TotalLen: uint16(40 + rng.Intn(1460)),
				},
			}
		}
		res, err := flow.Measure(recs, flow.By5Tuple, 10)
		if err != nil {
			return false
		}
		var pkts int
		var bits float64
		for _, fl := range res.Flows {
			if fl.Packets < 2 || fl.Duration() <= 0 {
				return false
			}
			pkts += fl.Packets
			bits += fl.SizeBits()
		}
		pkts += len(res.Discarded)
		for _, d := range res.Discarded {
			bits += d.Bits
		}
		var wantBits float64
		for _, r := range recs {
			wantBits += r.Bits()
		}
		return pkts == n && math.Abs(bits-wantBits) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The LST of Theorem 1 and the Gaussian approximation of §V-E must agree
// on the exceedance scale when λ is large (many concurrent flows): compare
// the Gaussian P(R > μ+2σ) ≈ 2.3% with the skewness-corrected expectation.
func TestGaussianApproxSanity(t *testing.T) {
	rng := rng.New(7)
	flows := make([]core.FlowSample, 500)
	for i := range flows {
		s := 5e4 * math.Exp(0.5*rng.Norm())
		flows[i] = core.FlowSample{S: s, D: 0.5 + rng.Float64()}
	}
	m, err := core.NewModel(2000, core.Triangular, flows) // heavy multiplexing
	if err != nil {
		t.Fatal(err)
	}
	sk, err := m.Skewness()
	if err != nil {
		t.Fatal(err)
	}
	// Skewness decays as 1/√λ; at λ=2000 it should be small, which is what
	// licenses the Gaussian dimensioning rule.
	if sk > 0.2 {
		t.Fatalf("skewness %g too large for the Gaussian regime", sk)
	}
	mHalf, err := core.NewModel(20, core.Triangular, flows)
	if err != nil {
		t.Fatal(err)
	}
	skHalf, err := mHalf.Skewness()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sk/skHalf, math.Sqrt(20.0/2000.0); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("skewness scaling %g, want √(λ₁/λ₂) = %g", got, want)
	}
}
