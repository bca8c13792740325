// Dimensioning (§VII-A): use the model to answer the network-engineering
// questions the paper motivates.
//
//  1. How much capacity does this traffic need for a target congestion
//     probability? (Gaussian dimensioning, §V-E.)
//
//  2. What happens when a new application doubles flow sizes, or when the
//     customer base grows? (What-if analysis on the model inputs.)
//
//  3. How does burstiness evolve as load grows? (The 1/√λ smoothing law:
//     capacity can grow sub-linearly with demand.)
//
//     go run ./examples/dimensioning
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
	specs, err := trace.DefaultSuite(trace.SuiteOptions{MaxIntervals: 2})
	if err != nil {
		log.Fatal(err)
	}
	cfg := specs[0].Config()
	cfg.Warmup = 60
	// Measure the trace's 5-tuple flows as one interval, streaming.
	meter, err := core.NewMeter([]flow.Definition{flow.By5Tuple}, flow.DefaultTimeout, cfg.Duration, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, meter.AddBlock); err != nil {
		log.Fatal(err)
	}
	iv, err := meter.Eval(meter.Flush()[0])
	if err != nil {
		log.Fatal(err)
	}
	m, err := iv.Model(core.Parabolic)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("traffic: mean %.2f Mb/s, σ %.2f Mb/s (λ=%.0f flows/s)\n\n",
		m.Mean()/1e6, m.StdDev()/1e6, m.Lambda)

	// 1. Capacity vs target congestion probability.
	fmt.Println("capacity needed (Gaussian dimensioning, §V-E):")
	for _, eps := range []float64{0.05, 0.01, 0.001} {
		c, err := m.Bandwidth(eps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  P(congestion) < %5.3f  =>  C = %7.2f Mb/s  (checked: P(R>C) = %.4f)\n",
			eps, c/1e6, m.ExceedProb(c))
	}

	// 2. What-if: a new application doubles every flow's size at the same
	// flow rate (durations double too).
	bigger := &core.FlowPop{}
	for i, s := range m.Pop.S {
		bigger.Append(2*s, 2*m.Pop.D[i])
	}
	m2, err := core.NewModel(m.Lambda, m.Shot, bigger)
	if err != nil {
		log.Fatal(err)
	}
	c1, _ := m.Bandwidth(0.01)
	c2, _ := m2.Bandwidth(0.01)
	fmt.Printf("\nwhat-if — flow sizes ×2 (same per-flow rate):\n")
	fmt.Printf("  mean %.2f -> %.2f Mb/s; C(1%%) %.2f -> %.2f Mb/s\n",
		m.Mean()/1e6, m2.Mean()/1e6, c1/1e6, c2/1e6)

	// 3. The smoothing law: scale the customer base (λ) and watch the CoV
	// fall as 1/√λ, so the needed headroom shrinks relative to the mean.
	fmt.Println("\ngrowth — flow arrival rate scaled (same flow mix):")
	fmt.Printf("  %6s %12s %10s %16s\n", "λ×", "mean(Mb/s)", "CoV(%)", "C(1%)/mean")
	for _, k := range []float64{1, 4, 16} {
		mk, err := m.WithLambda(m.Lambda * k)
		if err != nil {
			log.Fatal(err)
		}
		ck, _ := mk.Bandwidth(0.01)
		fmt.Printf("  %6.0f %12.2f %10.2f %16.3f\n",
			k, mk.Mean()/1e6, mk.CoV()*100, ck/mk.Mean())
	}
	fmt.Println("\nCoV halves per λ×4: traffic smooths as flows multiplex (§VII-A)")
}
