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
	"fmt"
	"log"

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
	recs, _, err := trace.GenerateAll(cfg)
	if err != nil {
		log.Fatal(err)
	}
	interval := specs[4].IntervalSec

	// Flood: a surge of small constant-rate flows to one /24 prefix for
	// 20 s in the middle of the second interval, adding ~8× the model σ.
	floodStart := 1.5 * interval
	size := dist.Constant{V: 20000} // 20 kB zombies
	rate := dist.Constant{V: 400e3} // 0.4 s bursts
	flood, _, err := trace.GenerateAll(trace.Config{
		Duration:        20,
		Lambda:          80,
		SizeBytes:       size,
		RateBps:         rate,
		ShotB:           dist.Constant{V: 0},
		FlowsPerSession: 1,
		Prefixes:        2, // all to the same couple of prefixes
		PopularPrefixes: 1,
		Seed:            13,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Fit the model on the clean first interval.
	var clean []trace.Record
	for _, r := range recs {
		if r.Time >= interval {
			break
		}
		clean = append(clean, r)
	}
	res, err := flow.Measure(clean, flow.By5Tuple, flow.DefaultTimeout)
	if err != nil {
		log.Fatal(err)
	}
	in, err := core.InputFromFlows(res.Flows, interval)
	if err != nil {
		log.Fatal(err)
	}
	m, err := in.Model(core.Parabolic)
	if err != nil {
		log.Fatal(err)
	}

	// Detector band from the model (σ_Δ via eq. 7), z = 4, 1 s debounce.
	const delta = 0.2
	det, err := anomaly.FromModel(m, delta, 4, 5)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := det.Bounds()
	fmt.Printf("model band (z=4): [%.2f, %.2f] Mb/s around mean %.2f Mb/s\n",
		lo/1e6, hi/1e6, det.Mu/1e6)

	// Scan the whole trace (both intervals) with the flood overlaid: bins
	// sum integer bit counts, exact in float64, so the two streams need no
	// merge.
	binner, err := timeseries.NewBinner(cfg.Duration, delta)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		binner.AddRecord(r)
	}
	for _, r := range flood {
		binner.Add(r.Time+floodStart, r.Bits())
	}
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
