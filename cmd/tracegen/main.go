// Command tracegen generates synthetic backbone packet traces (the Sprint
// OC-12 substitutes of Table I) and writes them as standard pcap files that
// tcpdump/wireshark can open and cmd/flowstats can analyse.
//
// With -store it writes the columnar trace store format instead
// (internal/trace/store): segment frames of packed SoA columns, the
// out-of-core input of `experiments -store` and flowd replay.
//
// Usage:
//
//	tracegen -o trace1.pcap                  # trace 1 of the scaled suite
//	tracegen -trace 4 -o quiet.pcap          # the 26 Mb/s (scaled) trace
//	tracegen -duration 60 -lambda 200 -b 2 -o custom.pcap
//	tracegen -store -o trace-1.fstore        # columnar store
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/trace"
	"repro/internal/trace/store"
)

func main() {
	var (
		out      = flag.String("o", "", "output pcap file (required)")
		traceIdx = flag.Int("trace", 1, "Table I trace number 1..7 (suite mode)")
		duration = flag.Float64("duration", 0, "custom mode: trace length in seconds (overrides -trace)")
		lambda   = flag.Float64("lambda", 100, "custom mode: flow arrival rate per second")
		b        = flag.Float64("b", 2, "custom mode: shot exponent (0 rect, 1 tri, 2 parabolic)")
		link     = flag.Float64("link", 100e6, "suite mode: scaled link capacity in bit/s")
		ivl      = flag.Float64("interval", 120, "suite mode: analysis interval seconds")
		perHour  = flag.Float64("perhour", 2, "suite mode: analysis intervals per paper trace hour")
		maxIvl   = flag.Int("maxivl", 2, "suite mode: intervals to generate")
		seed     = flag.Int64("seed", 1, "random seed")
		warmup   = flag.Float64("warmup", 60, "stationarity warm-up in seconds")
		genWork  = flag.Int("genworkers", 1, "packet-synthesis workers (<= 1 = serial); output is identical at any count")
		useStore = flag.Bool("store", false, "write a columnar trace store (.fstore) instead of a pcap; the file bytes are identical at any -genworkers")
	)
	flag.Parse()
	if *out == "" {
		fatal(fmt.Errorf("-o is required"))
	}
	if !nonNegative(*duration) {
		fatal(fmt.Errorf("-duration must be finite and >= 0 (0 = suite mode), got %g", *duration))
	}
	if *duration > 0 && !(*lambda > 0) {
		fatal(fmt.Errorf("-lambda must be > 0 in custom mode, got %g", *lambda))
	}
	if !nonNegative(*b) {
		fatal(fmt.Errorf("-b must be finite and >= 0 (0 rect, 1 tri, 2 parabolic), got %g", *b))
	}
	if !(*link > 0) {
		fatal(fmt.Errorf("-link must be > 0 bit/s, got %g", *link))
	}
	if !(*ivl > 0) {
		fatal(fmt.Errorf("-interval must be > 0 seconds, got %g", *ivl))
	}
	if !(*perHour > 0) {
		fatal(fmt.Errorf("-perhour must be > 0, got %g", *perHour))
	}
	if *maxIvl < 1 {
		fatal(fmt.Errorf("-maxivl must be >= 1 interval, got %d", *maxIvl))
	}
	if !nonNegative(*warmup) {
		fatal(fmt.Errorf("-warmup must be finite and >= 0 seconds, got %g", *warmup))
	}
	if *genWork < 0 {
		fatal(fmt.Errorf("-genworkers must be >= 0 (<= 1 = serial), got %d", *genWork))
	}

	var cfg trace.Config
	if *duration > 0 {
		var err error
		cfg, err = trace.CustomConfig(*duration, *lambda, *b, *seed)
		if err != nil {
			fatal(err)
		}
		cfg.Warmup = *warmup
	} else {
		specs, err := trace.DefaultSuite(trace.SuiteOptions{
			LinkBps:          *link,
			IntervalSec:      *ivl,
			IntervalsPerHour: *perHour,
			MaxIntervals:     *maxIvl,
			Seed:             *seed,
		})
		if err != nil {
			fatal(err)
		}
		if *traceIdx < 1 || *traceIdx > len(specs) {
			fatal(fmt.Errorf("-trace must be 1..%d", len(specs)))
		}
		cfg = specs[*traceIdx-1].Config()
		cfg.Warmup = *warmup
	}

	// SIGINT/SIGTERM abort the run cleanly: generation stops at the next
	// block boundary and no partial output file is left behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *useStore {
		sum, err := store.Generate(ctx, *out, cfg, 0, store.Options{Workers: *genWork})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d packets, %d flows, %.2f Mb/s over %.0f s (columnar store)\n",
			*out, sum.Packets, sum.Flows, sum.AvgRateBps/1e6, sum.Duration)
		return
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	var sum trace.Summary
	pw, err := trace.NewPcapWriter(f)
	if err == nil {
		sum, err = trace.StreamParallelBlocksCtx(ctx, cfg, *genWork, pw.AddBlock)
	}
	if err == nil {
		err = pw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out)
		fatal(err)
	}
	fmt.Printf("wrote %s: %d packets, %d flows, %.2f Mb/s over %.0f s\n",
		*out, sum.Packets, sum.Flows, sum.AvgRateBps/1e6, sum.Duration)
}

// nonNegative reports whether x is finite and >= 0; NaN fails it.
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
