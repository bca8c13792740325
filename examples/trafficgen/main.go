// Traffic generation (§VII-C): fit the shot-noise model on measured flows,
// then use it to synthesise new backbone traffic — the paper's proposal for
// simulation tools. The demo fits b̂ from the measured variance (§V-D),
// generates both fluid and packet traffic from the fitted model, and shows
// that the naive constant-rate generator (rectangular shots) reproduces the
// mean but under-states the burstiness.
//
//	go run ./examples/trafficgen
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

func main() {
	// "Measured" traffic to imitate.
	specs, err := trace.DefaultSuite(trace.SuiteOptions{MaxIntervals: 2})
	if err != nil {
		log.Fatal(err)
	}
	cfg := specs[2].Config() // the busiest trace
	cfg.Warmup = 60
	recs, _, err := trace.GenerateAll(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := flow.Measure(recs, flow.By5Tuple, flow.DefaultTimeout)
	if err != nil {
		log.Fatal(err)
	}
	const delta = 0.2
	orig, err := timeseries.Bin(recs, cfg.Duration, delta)
	if err != nil {
		log.Fatal(err)
	}
	orig.Subtract(res.Discarded)
	in, err := core.InputFromFlows(res.Flows, cfg.Duration)
	if err != nil {
		log.Fatal(err)
	}

	// Fit the shot exponent to the measured variance, correcting for the
	// Δ-averaging of the measurement (eq. 7).
	bHat, ok, err := core.FitPowerBAveraged(orig.Variance(), delta, in, 3000)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		fmt.Println("note: fitted b clamped to the feasible range")
	}
	m, err := in.Model(core.PowerShot{B: bHat})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted model: λ=%.0f flows/s, b̂=%.2f, mean %.2f Mb/s\n",
		m.Lambda, bHat, m.Mean()/1e6)

	// Generate fresh traffic from the fitted model.
	gcfg := gen.FromModel(m, cfg.Duration, 30, 7)
	fluid, err := gen.FluidSeries(gcfg, delta)
	if err != nil {
		log.Fatal(err)
	}
	binner, err := timeseries.NewBinner(cfg.Duration, delta)
	if err != nil {
		log.Fatal(err)
	}
	if err := gen.Packets(gcfg, 1500, func(blk *trace.Block) error {
		binner.AddBlock(blk)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	pktSeries := binner.Series()

	// The naive generator: same flows, constant rate S/D.
	naive := gcfg
	naive.Shot = core.Rectangular
	naiveSeries, err := gen.FluidSeries(naive, delta)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-26s %12s %10s\n", "process", "mean(Mb/s)", "CoV(%)")
	rows := []struct {
		name   string
		series timeseries.Series
	}{
		{"original (measured)", orig},
		{"generated fluid (b̂)", fluid},
		{"generated packets (b̂)", pktSeries},
		{"naive constant-rate", naiveSeries},
	}
	for _, r := range rows {
		fmt.Printf("%-26s %12.2f %10.2f\n", r.name, r.series.Mean()/1e6, r.series.CoV()*100)
	}

	// Correlation structure carried by the shots (Theorem 2).
	fmt.Printf("\n%10s %10s %12s\n", "tau(ms)", "model ρ", "generated ρ")
	acf := fluid.AutoCorrelation(4)
	for k := 0; k <= 4; k++ {
		tau := float64(k) * delta
		fmt.Printf("%10.0f %10.3f %12.3f\n", tau*1e3, m.AutoCorrelation(tau), acf[k])
	}
}
