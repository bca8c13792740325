// Command flowstats runs the paper's §III flow-measurement pipeline on a
// pcap trace (real or generated by tracegen) and prints the model inputs
// (λ, E[S], E[S²/D]), the measured total-rate statistics, and the model's
// CoV for the three canonical shot shapes — one scatter point of Figures
// 9-13 per invocation. The capture is one interval, measured by core.Meter:
// the rate series ends at the last whole Δ bin, so packets in a trailing
// partial bin count as flows but not toward the measured rate.
//
// Usage:
//
//	flowstats -in trace.pcap
//	flowstats -in trace.pcap -def prefix24 -delta 0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/trace"
)

func main() {
	var (
		in      = flag.String("in", "", "input pcap file (required)")
		defName = flag.String("def", "5tuple", "flow definition: 5tuple, prefix24, prefix16, prefix8")
		timeout = flag.Float64("timeout", flow.DefaultTimeout, "flow timeout in seconds")
		delta   = flag.Float64("delta", 0.2, "rate averaging interval Δ in seconds")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	if !(*timeout > 0) {
		fatal(fmt.Errorf("-timeout must be > 0 seconds, got %g", *timeout))
	}
	if !(*delta > 0) {
		fatal(fmt.Errorf("-delta must be > 0 seconds, got %g", *delta))
	}
	def, err := parseDef(*defName)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM abort the analysis cleanly at the next block boundary
	// of either pass over the capture.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// The meter's rate bins need the trace length up front: a first pass
	// over the capture finds the last packet time, a second measures the
	// whole capture as one interval. Both stream, so memory is independent
	// of the capture length.
	first, err := trace.StreamPcap(ctx, f, func(*trace.Block) error { return nil })
	if err != nil {
		fatal(err)
	}
	duration := first.Duration
	if first.Packets == 0 {
		fatal(fmt.Errorf("empty trace"))
	} else if duration <= 0 {
		fatal(fmt.Errorf("trace too short"))
	}
	meter, err := core.NewMeter([]flow.Definition{def}, *timeout, duration, *delta)
	if err != nil {
		fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		fatal(err)
	}
	sum, err := trace.StreamPcap(ctx, f, meter.AddBlock)
	if err != nil {
		fatal(err)
	}
	res := meter.Flush()[0]
	iv, err := meter.Eval(res)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("trace: %d packets over %.1f s; definition: %s; timeout %.0f s\n",
		sum.Packets, duration, def, *timeout)
	fmt.Printf("flows: %d kept, %d single-packet discarded\n", len(res.Flows), len(res.Discarded))
	fmt.Printf("model inputs: λ=%.2f flows/s  E[S]=%.1f kbit  E[S²/D]=%.4g bit²/s\n",
		iv.Lambda, iv.MeanS/1e3, iv.MeanS2OverD)
	fmt.Printf("measured rate (Δ=%.0f ms): mean %.3f Mb/s, σ %.3f Mb/s, CoV %.2f%%\n",
		*delta*1e3, iv.MeasMean/1e6, math.Sqrt(iv.MeasVar)/1e6, iv.MeasCoV*100)

	fmt.Printf("%-22s %10s %10s\n", "shot", "model CoV", "σ_Δ CoV")
	for b, shot := range []core.PowerShot{core.Rectangular, core.Triangular, core.Parabolic} {
		m, err := iv.Model(shot)
		if err != nil {
			fatal(err)
		}
		sigma, err := meter.SigmaDelta(iv, b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-22s %9.2f%% %9.2f%%\n", shot.Name(), m.CoV()*100, sigma/m.Mean()*100)
	}
	if iv.FitErr == nil {
		if iv.FitOK {
			fmt.Printf("fitted shot exponent b̂ = %.2f (§V-D)\n", iv.FittedB)
		} else {
			fmt.Println("fitted shot exponent clamped to 0 (measured σ² below the Theorem 3 bound)")
		}
	}
}

func parseDef(s string) (flow.Definition, error) {
	switch s {
	case "5tuple":
		return flow.By5Tuple, nil
	case "prefix24":
		return flow.ByPrefix24, nil
	case "prefix16":
		return flow.ByPrefix16, nil
	case "prefix8":
		return flow.ByPrefix8, nil
	default:
		return 0, fmt.Errorf("unknown flow definition %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowstats:", err)
	os.Exit(1)
}
