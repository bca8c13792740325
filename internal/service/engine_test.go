package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// timesBlock packs packet times into a fresh pooled block.
func timesBlock(times []float64) *trace.Block {
	blk := trace.GetBlock()
	for i, t := range times {
		blk.Append(t, 100+uint16(i), uint64(i%3+1), uint64(i%2+1))
	}
	return blk
}

// rechunk packs recs into owned blocks of n packets.
func rechunk(recs []trace.Record, n int) []*trace.Block {
	var out []*trace.Block
	for i := 0; i < len(recs); i += n {
		blk := trace.GetBlock()
		for _, r := range recs[i:min(i+n, len(recs))] {
			blk.AppendRecord(r)
		}
		out = append(out, blk)
	}
	return out
}

// Every interval engine places packets through the one interval clock, so
// each must refuse a time that is NaN or infinite — including a NaN between
// two ordered packets, which once slipped past the order check and reached
// the rate binner as interval MinInt64 — with an error, never a panic.
func TestIntervalEnginesRejectNonFiniteTimes(t *testing.T) {
	cases := map[string][]float64{
		"nan":         {math.NaN()},
		"+inf":        {math.Inf(1)},
		"-inf":        {math.Inf(-1)},
		"nan-between": {1, math.NaN(), 2},
	}
	engines := map[string]func(times []float64) error{
		"partitioner": func(times []float64) error {
			var wg sync.WaitGroup
			p, err := flow.NewIntervalPartitioner(tInterval, 0, 64, func(is *flow.IntervalStream) error {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range is.Blocks() {
					}
				}()
				return nil
			})
			if err != nil {
				return err
			}
			blk := timesBlock(times)
			defer trace.PutBlock(blk)
			err = p.AddBlock(blk)
			p.Abort()
			wg.Wait()
			return err
		},
		"pipeline": func(times []float64) error {
			var reps []Report
			p, err := NewPipeline(testPipeCfg(&reps))
			if err != nil {
				return err
			}
			blk := timesBlock(times)
			defer trace.PutBlock(blk)
			return p.AddBlock(blk)
		},
		"measure-intervals": func(times []float64) error {
			feed := func(sink func(*trace.Block) error) error {
				blk := timesBlock(times)
				defer trace.PutBlock(blk)
				return sink(blk)
			}
			_, err := flow.MeasureIntervals(feed, []flow.Definition{flow.By5Tuple}, tInterval, flow.DefaultTimeout)
			return err
		},
	}
	for cname, times := range cases {
		for ename, run := range engines {
			t.Run(cname+"/"+ename, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if err := run(times); err == nil {
					t.Fatalf("times %v accepted", times)
				}
			})
		}
	}
}

// suitePoint measures one partitioned interval the way the suite's
// interval worker does — Measurer and Binner over the stream's blocks, then
// the rate series net of discarded packets, the flow population and the
// power-shot fit — into the Report fields flowd's Pipeline computes.
func suitePoint(is *flow.IntervalStream, defs []flow.Definition) (Report, error) {
	meas, err := flow.NewMeasurer(defs, flow.DefaultTimeout)
	if err != nil {
		return Report{}, err
	}
	bin, err := timeseries.NewBinner(tInterval, tDelta)
	if err != nil {
		return Report{}, err
	}
	var pkts int64
	for blk := range is.Blocks() {
		bin.AddBlock(blk)
		if err == nil {
			err = meas.AddBlock(blk)
		}
		pkts += int64(blk.Len())
	}
	if err != nil {
		return Report{}, err
	}
	res := meas.Flush()[0]
	series := bin.Series()
	series.Subtract(res.Discarded)
	r := Report{
		Index:     is.Index,
		Flows:     len(res.Flows),
		Discarded: len(res.Discarded),
		Packets:   pkts,
		MeasMean:  series.Mean(),
		MeasVar:   series.Variance(),
		MeasCoV:   series.CoV(),
	}
	if in, err := core.InputFromFlowsPop(&core.FlowPop{}, res.Flows, tInterval); err == nil {
		r.Lambda, r.MeanS, r.MeanS2oD = in.Lambda, in.MeanS, in.MeanS2OverD
		if b, ok, err := core.FitPowerB(r.MeasVar, in.Lambda, in.MeanS2OverD); err == nil {
			r.FittedB, r.FitOK = b, ok
		}
	}
	return r, nil
}

// suiteEngine runs blocks through the suite's engine: an interval
// partitioner over the declared duration, one worker per interval stream.
func suiteEngine(blocks []*trace.Block, duration float64, defs []flow.Definition) ([]Report, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	var out []Report
	p, err := flow.NewIntervalPartitioner(tInterval, duration, 4096, func(is *flow.IntervalStream) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := suitePoint(is, defs)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			for len(out) <= is.Index {
				out = append(out, Report{})
			}
			out[is.Index] = r
		}()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, blk := range blocks {
		if err := p.AddBlock(blk); err != nil {
			p.Abort()
			wg.Wait()
			return nil, err
		}
	}
	err = p.Close()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return out, firstErr
}

// The suite and flowd measure intervals through different drivers of the
// same clock: the suite partitions the stream and measures each interval
// in a worker, flowd's Pipeline cuts and closes intervals inline. Fed the
// same trace in blocks that straddle interval edges, both must report
// every interval bit for bit alike.
func TestPipelineMatchesSuiteEngine(t *testing.T) {
	// Heavy-tailed sizes and spread-out rates, so the measured variance
	// fits a shot exponent and the fit fields are compared, not just zero.
	size, err := dist.NewBoundedPareto(1.3, 3000, 300000)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := dist.LognormalFromMoments(250e3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testBase(41)
	cfg.Duration = 5 * tInterval
	cfg.Lambda = 100
	cfg.SizeBytes, cfg.RateBps = size, rate
	recs, _, err := trace.GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defs := []flow.Definition{flow.By5Tuple, flow.ByPrefix24}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{1, 17, trace.BlockSize} {
		t.Run(fmt.Sprintf("block=%d", n), func(t *testing.T) {
			blocks := rechunk(recs, n)
			defer putAll(blocks)

			var reps []Report
			pcfg := testPipeCfg(&reps)
			pcfg.Defs = defs
			p, err := NewPipeline(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			feedAll(t, p, blocks)
			if err := p.Drain(); err != nil {
				t.Fatal(err)
			}
			suite, err := suiteEngine(blocks, cfg.Duration, defs)
			if err != nil {
				t.Fatal(err)
			}

			if len(reps) != 5 || len(suite) != 5 {
				t.Fatalf("pipeline closed %d intervals, suite %d, want 5", len(reps), len(suite))
			}
			fits := 0
			for i, r := range reps {
				s := suite[i]
				if r.Index != s.Index || r.Flows != s.Flows || r.Discarded != s.Discarded || r.Packets != s.Packets ||
					!same(r.MeasMean, s.MeasMean) || !same(r.MeasVar, s.MeasVar) || !same(r.MeasCoV, s.MeasCoV) ||
					!same(r.Lambda, s.Lambda) || !same(r.MeanS, s.MeanS) || !same(r.MeanS2oD, s.MeanS2oD) ||
					!same(r.FittedB, s.FittedB) || r.FitOK != s.FitOK {
					t.Fatalf("interval %d differs:\npipeline %+v\nsuite    %+v", i, r, s)
				}
				if r.Packets == 0 || r.Lambda == 0 {
					t.Fatalf("interval %d is empty or unfitted: %+v", i, r)
				}
				if r.FitOK {
					fits++
				}
			}
			if fits == 0 {
				t.Fatal("no interval fitted a shot exponent: the fit comparison is vacuous")
			}
		})
	}
}

// FuzzPipelineAddBlock feeds flowd's pipeline packet times decoded from raw
// float64 bits, so NaN, ±Inf, negative and reversed times all occur. Finite
// times wrap into a few hundred intervals, so one far-future time cannot
// make a run close millions of empty intervals. AddBlock may accept or
// refuse a block; it must never panic.
func FuzzPipelineAddBlock(f *testing.F) {
	const span = 300 * tInterval
	enc := func(times ...float64) []byte {
		var b []byte
		for _, t := range times {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
		}
		return b
	}
	f.Add(enc(1, math.NaN(), 2))
	f.Add(enc(0.5, 0.9, 3, 2.5))
	f.Add(enc(1, 5, math.Inf(1), -1, math.Inf(-1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var reps []Report
		p, err := NewPipeline(testPipeCfg(&reps))
		if err != nil {
			t.Fatal(err)
		}
		blk := trace.GetBlock()
		defer trace.PutBlock(blk)
		// Four packets per block, so order checks also cross block edges.
		for i := 0; i+8 <= len(data); i += 8 {
			tm := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			if !math.IsNaN(tm) && !math.IsInf(tm, 0) {
				tm = math.Mod(tm, span)
			}
			blk.Append(tm, uint16(40+i), uint64(i%5+1), uint64(i%3+1))
			if blk.Len() == 4 || i+16 > len(data) {
				if err := p.AddBlock(blk); err != nil {
					return
				}
				blk.Reset()
			}
		}
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
	})
}
