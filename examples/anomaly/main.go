// Anomaly detection: the application the paper's introduction motivates —
// "detection of anomalies (e.g. denial of service attacks or link
// failures)". The model, fitted on clean flow statistics, predicts the
// Gaussian band the rate should stay in; a flood of small flows injected
// mid-trace pushes the measured rate out of the band and is localised by
// the detector.
//
//	go run ./examples/anomaly
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

func main() {
	// Baseline traffic: one clean interval to fit the model on, then a
	// second interval with a DoS-like flood overlaid.
	specs, err := trace.DefaultSuite(trace.SuiteOptions{MaxIntervals: 2})
	if err != nil {
		log.Fatal(err)
	}
	cfg := specs[4].Config()
	cfg.Warmup = 60
	interval := specs[4].IntervalSec

	// Detector bins: Δ = 200 ms over the whole trace (both intervals).
	const delta = 0.2
	binner, err := timeseries.NewBinner(cfg.Duration, delta)
	if err != nil {
		log.Fatal(err)
	}

	// One pass over the trace bins every packet and measures the flows of
	// the clean first interval, the part of each block below its end.
	meas, err := flow.NewMeasurer([]flow.Definition{flow.By5Tuple}, flow.DefaultTimeout)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	_, err = trace.StreamParallelBlocksCtx(ctx, cfg, 1, func(blk *trace.Block) error {
		binner.AddBlock(blk)
		clean := blk.Slice(0, sort.SearchFloat64s(blk.Times, interval))
		return meas.AddBlock(&clean)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Fit the model on the clean first interval.
	in, err := core.InputFromFlows(meas.Flush()[0].Flows, interval)
	if err != nil {
		log.Fatal(err)
	}
	m, err := in.Model(core.Parabolic)
	if err != nil {
		log.Fatal(err)
	}

	// Detector band from the model (σ_Δ via eq. 7), z = 4, 1 s debounce.
	det, err := anomaly.FromModel(m, delta, 4, 5)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := det.Bounds()
	fmt.Printf("model band (z=4): [%.2f, %.2f] Mb/s around mean %.2f Mb/s\n",
		lo/1e6, hi/1e6, det.Mu/1e6)

	// Flood: a surge of small constant-rate flows to one /24 prefix for
	// 20 s in the middle of the second interval, adding ~8× the model σ.
	// Its packets land in the same bins, shifted to the flood start: bins
	// sum integer bit counts, exact in float64, so the two streams need no
	// merge.
	floodStart := 1.5 * interval
	size := dist.Constant{V: 20000} // 20 kB zombies
	rate := dist.Constant{V: 400e3} // 0.4 s bursts
	_, err = trace.StreamParallelBlocksCtx(ctx, trace.Config{
		Duration:        20,
		Lambda:          80,
		SizeBytes:       size,
		RateBps:         rate,
		ShotB:           dist.Constant{V: 0},
		FlowsPerSession: 1,
		Prefixes:        2, // all to the same couple of prefixes
		PopularPrefixes: 1,
		Seed:            13,
	}, 1, func(blk *trace.Block) error {
		for j, t := range blk.Times {
			binner.Add(t+floodStart, float64(blk.Sizes[j])*8)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Scan the whole trace with the flood overlaid.
	series := binner.Series()
	events := det.Scan(series)
	if len(events) == 0 {
		fmt.Println("no anomalies detected — unexpected, the flood should trip the band")
		return
	}
	for _, e := range events {
		fmt.Printf("anomaly: rate %s band for %.1f s starting at t=%.1f s (peak %.2f Mb/s)\n",
			e.Direction, e.Duration(delta), float64(e.StartBin)*delta, e.Peak/1e6)
	}
	fmt.Printf("injected flood was at t=%.1f..%.1f s\n", floodStart, floodStart+20)
}
