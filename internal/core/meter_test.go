package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// A Meter must compute exactly what the hand sequence it replaces computes
// — bin, measure, subtract the discards, fill the population, fit b and run
// the eq.(7) kernels — bit for bit, under both flow definitions, across a
// Reset, and for an interval with no usable flows.
func TestMeterMatchesHandSequence(t *testing.T) {
	const ivSec, delta = 30.0, 0.2
	defs := []flow.Definition{flow.By5Tuple, flow.ByPrefix24}
	meter, err := core.NewMeter(defs, flow.DefaultTimeout, ivSec, delta)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := trace.DefaultSuite(trace.SuiteOptions{LinkBps: 20e6, IntervalSec: ivSec, MaxIntervals: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	// Interval 0 and 1 are two seeds of one suite trace; interval 2 holds
	// two single-packet flows and nothing else.
	sparse := 0
	for i, seed := range []int64{3, 4, -1} {
		if i > 0 {
			meter.Reset()
		}
		meas, err := flow.NewMeasurer(defs, flow.DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := timeseries.NewBinner(ivSec, delta)
		if err != nil {
			t.Fatal(err)
		}
		feed := func(blk *trace.Block) error {
			bin.AddBlock(blk)
			if err := meas.AddBlock(blk); err != nil {
				return err
			}
			return meter.AddBlock(blk)
		}
		if seed < 0 {
			blk := &trace.Block{} // two hosts in two /24s
			blk.Append(1.5, 1000, 1<<32, 0x0a000100<<32)
			blk.Append(2.5, 600, 2<<32, 0x0a000200<<32)
			err = feed(blk)
		} else {
			cfg := specs[0].Config()
			cfg.Warmup, cfg.Seed = 60, seed
			_, err = trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, feed)
		}
		if err != nil {
			t.Fatal(err)
		}
		for di := range defs {
			if got, want := meter.ActiveFlows(di), meas.ActiveFlows(di); got != want {
				t.Fatalf("interval %d %v: %d active flows, hand sequence %d", i, defs[di], got, want)
			}
		}
		results, want := meter.Flush(), meas.Flush()
		for di, def := range defs {
			res := want[di]
			if len(results[di].Flows) != len(res.Flows) || len(results[di].Discarded) != len(res.Discarded) {
				t.Fatalf("interval %d %v: flushed %d/%d flows, hand sequence %d/%d", i, def,
					len(results[di].Flows), len(results[di].Discarded), len(res.Flows), len(res.Discarded))
			}
			iv, err := meter.Eval(results[di])

			series := bin.Series()
			series.Subtract(res.Discarded)
			if !slices.EqualFunc(iv.Series.Rate, series.Rate, same) {
				t.Fatalf("interval %d %v: subtracted series differs", i, def)
			}
			if !same(iv.MeasMean, series.Mean()) || !same(iv.MeasVar, series.Variance()) || !same(iv.MeasCoV, series.CoV()) {
				t.Fatalf("interval %d %v: measured moments (%g, %g, %g), hand sequence (%g, %g, %g)", i, def,
					iv.MeasMean, iv.MeasVar, iv.MeasCoV, series.Mean(), series.Variance(), series.CoV())
			}
			in, inErr := core.InputFromFlowsPop(&core.FlowPop{}, res.Flows, ivSec)
			if (err == nil) != (inErr == nil) {
				t.Fatalf("interval %d %v: Eval error %v, hand sequence %v", i, def, err, inErr)
			}
			if inErr != nil {
				if seed >= 0 {
					t.Fatalf("interval %d %v: %v", i, def, inErr)
				}
				if iv.Input != (core.Input{}) || iv.FittedB != 0 || iv.FitOK || iv.FitErr != nil {
					t.Fatalf("interval %d %v: no usable flows left inputs %+v, fit (%g, %v, %v)", i, def,
						iv.Input, iv.FittedB, iv.FitOK, iv.FitErr)
				}
				if _, err := meter.SigmaDelta(iv, 2); err == nil {
					t.Fatalf("interval %d %v: σ_Δ over an empty population", i, def)
				}
				sparse++
				continue
			}
			if !same(iv.Lambda, in.Lambda) || !same(iv.MeanS, in.MeanS) || !same(iv.MeanS2OverD, in.MeanS2OverD) ||
				!slices.EqualFunc(iv.Pop.S, in.Pop.S, same) || !slices.EqualFunc(iv.Pop.D, in.Pop.D, same) {
				t.Fatalf("interval %d %v: model inputs differ from the hand sequence", i, def)
			}
			b, ok, fitErr := core.FitPowerB(series.Variance(), in.Lambda, in.MeanS2OverD)
			if !same(iv.FittedB, b) || iv.FitOK != ok || (iv.FitErr == nil) != (fitErr == nil) {
				t.Fatalf("interval %d %v: fit (%g, %v, %v), hand sequence (%g, %v, %v)", i, def,
					iv.FittedB, iv.FitOK, iv.FitErr, b, ok, fitErr)
			}
			for shape := 0; shape <= 2; shape++ {
				k, err := core.NewAvgVarKernel(shape, delta)
				if err != nil {
					t.Fatal(err)
				}
				v, err := k.AveragedVariance(in.Lambda, in.Pop)
				if err != nil {
					t.Fatal(err)
				}
				got, err := meter.SigmaDelta(iv, shape)
				if err != nil || !same(got, math.Sqrt(v)) {
					t.Fatalf("interval %d %v b=%d: σ_Δ %g (%v), hand sequence %g", i, def, shape, got, err, math.Sqrt(v))
				}
			}
		}
	}
	if sparse != len(defs) {
		t.Fatalf("%d evaluations without usable flows, want %d", sparse, len(defs))
	}
	if _, err := meter.SigmaDelta(core.Interval{}, 3); err == nil {
		t.Fatal("σ_Δ for b = 3, which the meter has no kernel for")
	}
}
