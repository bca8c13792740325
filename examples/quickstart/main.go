// Quickstart: the 30-line tour of the library.
//
// Generate one analysis interval of synthetic backbone traffic, run the
// paper's flow-measurement pipeline (§III), feed the three model parameters
// (λ, E[S], E[S²/D]) into the Poisson shot-noise model, and compare the
// model's mean and coefficient of variation against the measured rate —
// one point of the paper's Figure 10.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/trace"
)

func main() {
	// One scaled Table I trace: two 120 s analysis intervals.
	specs, err := trace.DefaultSuite(trace.SuiteOptions{MaxIntervals: 2})
	if err != nil {
		log.Fatal(err)
	}
	cfg := specs[4].Config() // trace-5: the paper's mid-utilisation class
	cfg.Warmup = 60

	// The §III measurement pipeline (5-tuple flows, 60 s timeout,
	// single-packet flows discarded) and the measured total rate, averaged
	// over Δ = 200 ms windows, in one streaming pass over the trace.
	meter, err := core.NewMeter([]flow.Definition{flow.By5Tuple}, flow.DefaultTimeout, cfg.Duration, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, meter.AddBlock); err != nil {
		log.Fatal(err)
	}

	// The model needs three parameters, all measured from flows.
	res := meter.Flush()[0]
	iv, err := meter.Eval(res)
	if err != nil {
		log.Fatal(err)
	}
	m, err := iv.Model(core.Parabolic) // b=2 fits 5-tuple flows best (§VI)
	if err != nil {
		log.Fatal(err)
	}
	sigmaDelta, err := meter.SigmaDelta(iv, 2) // eq. (7)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("flows: %d (λ=%.1f/s, E[S]=%.1f kbit, E[S²/D]=%.3g bit²/s)\n",
		len(res.Flows), iv.Lambda, iv.MeanS/1e3, iv.MeanS2OverD)
	fmt.Printf("measured: mean %.2f Mb/s, CoV %.2f%%\n",
		iv.MeasMean/1e6, iv.MeasCoV*100)
	fmt.Printf("model:    mean %.2f Mb/s, CoV %.2f%%  (parabolic shots, Δ-averaged)\n",
		m.Mean()/1e6, sigmaDelta/m.Mean()*100)

	// The dimensioning rule of §V-E: capacity for <1% congestion.
	c, err := m.Bandwidth(0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capacity for 1%% congestion probability: %.2f Mb/s\n", c/1e6)
}
