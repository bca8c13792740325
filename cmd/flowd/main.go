// Command flowd runs the paper's flow-measurement pipeline as a supervised
// online service: it ingests an unbounded packet stream (looping a pcap
// trace or generating synthetic epochs), keeps per-link state resident —
// sliding-window interval series, incremental model refits off the kernel
// caches, online anomaly detection and one-step rate prediction — and
// survives faults: panics and transient ingest failures restart under
// seeded exponential backoff behind a restart-intensity circuit breaker, a
// checkpoint at every interval close means a restart re-ingests at most the
// interval that was open, and SIGINT/SIGTERM drain the partial interval and
// exit 0.
//
// Usage:
//
//	flowd -interval 60 -ckpt /var/lib/flowd            # synthetic ingest
//	flowd -source pcap -in trace.pcap -ckpt ./ckpt     # loop a real trace
//	flowd -shed                                        # degrade, don't stall
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/flow"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/timeseries"
	"repro/internal/trace"
	tracestore "repro/internal/trace/store"
)

func main() {
	var (
		source  = flag.String("source", "synthetic", "packet source: synthetic or pcap")
		in      = flag.String("in", "", "pcap file to replay (source=pcap)")
		epoch   = flag.Float64("epoch", 600, "epoch length in seconds (generation unit / replay loop length)")
		epochs  = flag.Int64("epochs", 0, "epochs to ingest before a clean stop (0 = run until signalled)")
		lambda  = flag.Float64("lambda", 100, "synthetic: flow arrival rate per second")
		b       = flag.Float64("b", 2, "synthetic: shot exponent (0 rect, 1 tri, 2 parabolic)")
		seed    = flag.Int64("seed", 1, "synthetic: base seed (epoch e generates with seed+e)")
		genWork = flag.Int("genworkers", 1, "synthetic: synthesis workers (<= 1 = serial)")

		interval = flag.Float64("interval", 120, "analysis interval in seconds")
		delta    = flag.Float64("delta", 0.2, "rate averaging interval Δ in seconds")
		window   = flag.Int("window", 32, "interval means kept for the online predictor")
		timeout  = flag.Float64("timeout", flow.DefaultTimeout, "flow timeout in seconds")

		ckptDir = flag.String("ckpt", "", "checkpoint directory, written at every interval close (empty = no checkpointing: a crash loses all state)")

		shed = flag.Bool("shed", false, "drop ingest blocks (with exact accounting) instead of blocking when the ingest queue is full")

		maxRestarts = flag.Int("max-restarts", 10, "restarts allowed inside -restart-window before giving up")
		restartWin  = flag.Duration("restart-window", 10*time.Minute, "circuit-breaker window")
		backoff     = flag.Duration("backoff", time.Second, "initial restart backoff (doubles up to -backoff-max, with seeded jitter)")
		backoffMax  = flag.Duration("backoff-max", time.Minute, "restart backoff cap")
		healthy     = flag.Duration("healthy-after", time.Minute, "run length that resets the backoff schedule")

		quiet = flag.Bool("quiet", false, "suppress per-interval reports")
	)
	flag.Parse()
	if !(*interval > 0) || math.IsInf(*interval, 1) {
		fatal(fmt.Errorf("-interval must be finite and > 0 seconds, got %g", *interval))
	}
	if !(*delta > 0) || *delta > *interval {
		fatal(fmt.Errorf("-delta must be in (0, interval], got %g", *delta))
	}
	if *interval / *delta > timeseries.MaxBins {
		fatal(fmt.Errorf("-interval %g over -delta %g needs more than %d rate bins", *interval, *delta, timeseries.MaxBins))
	}
	if !(*epoch > 0) || math.IsInf(*epoch, 1) {
		fatal(fmt.Errorf("-epoch must be finite and > 0 seconds, got %g", *epoch))
	}
	if *epochs < 0 {
		fatal(fmt.Errorf("-epochs must be >= 0 (0 = unbounded), got %d", *epochs))
	}
	if *maxRestarts < 1 {
		fatal(fmt.Errorf("-max-restarts must be >= 1, got %d", *maxRestarts))
	}

	// SIGINT/SIGTERM drain: the link flushes the partial interval (the next
	// run re-measures it from the last checkpoint) and the supervisor reports
	// a clean stop (exit 0). A signal during the pcap sidecar build aborts it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	src, err := buildSource(ctx, *source, *in, *epoch, *epochs, *lambda, *b, *seed, *genWork)
	if err != nil {
		fatal(err)
	}

	var store *snapshot.Store
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
		if store, err = snapshot.OpenStore(*ckptDir); err != nil {
			fatal(err)
		}
	}

	cfg := service.LinkConfig{
		Name:   "flowd",
		Source: src,
		Pipeline: service.PipelineConfig{
			IntervalSec: *interval,
			Delta:       *delta,
			Window:      *window,
			Timeout:     *timeout,
		},
		Store: store,
		Shed:  *shed,
	}
	if !*quiet {
		cfg.Pipeline.OnInterval = printReport
	}
	link, err := service.NewLink(cfg)
	if err != nil {
		fatal(err)
	}

	bo, err := service.NewBackoff(*backoff, *backoffMax, *seed, "flowd")
	if err != nil {
		fatal(err)
	}
	br, err := service.NewBreaker(*maxRestarts, *restartWin, nil)
	if err != nil {
		fatal(err)
	}
	sup := &service.Supervisor{
		Name:         "flowd",
		Backoff:      bo,
		Breaker:      br,
		HealthyAfter: *healthy,
		OnEvent: func(ev service.Event) {
			if ev.Class != service.Transient {
				return
			}
			fmt.Fprintf(os.Stderr, "flowd: run %d ended (%s): %v; restarting in %v\n",
				ev.Restart, ev.Class, ev.Err, ev.Delay)
		},
	}

	err = sup.Run(ctx, link.Run)
	st := link.Stats()
	fmt.Fprintf(os.Stderr, "flowd: %d blocks / %d packets measured, %d shed; %d checkpoints, %d restores, %d fresh starts\n",
		st.Blocks, st.Packets, st.ShedPackets, st.Checkpoints, st.Restores, st.FreshStarts)
	if err != nil {
		fatal(err)
	}
}

// buildSource wires the ingest stream: looped synthetic epochs or a looped
// pcap replay.
func buildSource(ctx context.Context, kind, in string, epoch float64, epochs int64, lambda, b float64, seed int64, genWork int) (service.BlockSource, error) {
	switch kind {
	case "synthetic":
		if !(lambda > 0) || math.IsInf(lambda, 1) {
			return nil, fmt.Errorf("-lambda must be finite and > 0, got %g", lambda)
		}
		if !(b >= 0) || math.IsInf(b, 1) {
			return nil, fmt.Errorf("-b must be finite and >= 0, got %g", b)
		}
		base, err := trace.CustomConfig(epoch, lambda, b, seed)
		if err != nil {
			return nil, err
		}
		return &service.SyntheticSource{
			Base:       base,
			Epochs:     epochs,
			GenWorkers: genWork,
		}, nil
	case "pcap":
		if in == "" {
			return nil, fmt.Errorf("-in is required with -source pcap")
		}
		side, err := ensurePcapStore(ctx, in)
		if err != nil {
			return nil, err
		}
		// The reader lives for the process: the service replays straight off
		// the file mapping, so the trace never has to fit in memory.
		r, err := tracestore.Open(side)
		if err != nil {
			return nil, err
		}
		// The replay loop length must cover the trace; grow a too-short
		// -epoch to the trace length instead of refusing to start.
		dur := epoch
		if last := r.LastTime(); dur < last {
			dur = math.Ceil(last)
		}
		return &service.ReplaySource{Reader: r, Duration: dur, Epochs: epochs}, nil
	default:
		return nil, fmt.Errorf("unknown -source %q (synthetic or pcap)", kind)
	}
}

// ensurePcapStore streams a pcap into its columnar sidecar <in>.fstore once;
// later runs (and supervisor restarts) reuse the sidecar while it is newer
// than the pcap, skipping the parse and replaying out-of-core. A capture
// that fails to decode leaves no sidecar behind.
func ensurePcapStore(ctx context.Context, in string) (string, error) {
	side := in + ".fstore"
	pst, err := os.Stat(in)
	if err != nil {
		return "", err
	}
	if sst, err := os.Stat(side); err == nil && sst.ModTime().After(pst.ModTime()) {
		return side, nil
	}
	f, err := os.Open(in)
	if err != nil {
		return "", err
	}
	defer f.Close()
	// The meta frame precedes the packets, so it cannot carry the trace
	// length; flowd always sets ReplaySource.Duration instead.
	w, err := tracestore.Create(side, tracestore.Meta{}, tracestore.Options{})
	if err != nil {
		return "", err
	}
	defer w.Abort()
	sum, err := trace.StreamPcap(ctx, f, w.AddBlock)
	if err != nil {
		return "", err
	}
	if sum.Packets == 0 {
		return "", fmt.Errorf("empty trace %s", in)
	}
	sum.Duration = math.Ceil(sum.Duration)
	if err := w.Close(sum); err != nil {
		return "", err
	}
	return side, nil
}

// printReport renders one closed analysis interval.
func printReport(r service.Report) error {
	fit := "    -"
	if r.FitOK {
		fit = fmt.Sprintf("%5.2f", r.FittedB)
	}
	pred := "       -"
	if r.HasPrediction {
		pred = fmt.Sprintf("%8.3f", r.Predicted/1e6)
	}
	partial := ""
	if r.Partial {
		partial = " (partial)"
	}
	fmt.Printf("interval %4d  t=%-9.0f flows=%-6d pkts=%-8d mean=%8.3f Mb/s  cov=%5.1f%%  b=%s  pred=%s Mb/s  anomalies=%d%s\n",
		r.Index, r.Start, r.Flows, r.Packets, r.MeasMean/1e6, r.MeasCoV*100, fit, pred, len(r.Anomalies), partial)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowd:", err)
	os.Exit(1)
}
