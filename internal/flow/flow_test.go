package flow

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/netpkt"
	"repro/internal/trace"
)

// rec builds a packet record for tests.
func rec(t float64, src, dst byte, sport uint16, bytes uint16) trace.Record {
	return trace.Record{
		Time: t,
		Hdr: netpkt.Header{
			SrcIP:    netpkt.IPv4Addr{10, 0, 0, src},
			DstIP:    netpkt.IPv4Addr{172, 16, 5, dst},
			Protocol: netpkt.ProtoTCP,
			SrcPort:  sport,
			DstPort:  80,
			TotalLen: bytes,
		},
	}
}

func TestNewAssemblerValidation(t *testing.T) {
	if _, err := NewAssembler(Definition(99), 60); err == nil {
		t.Fatal("unknown definition should be rejected")
	}
	if _, err := NewAssembler(By5Tuple, 0); err == nil {
		t.Fatal("zero timeout should be rejected")
	}
}

func TestMeasureBasicFlow(t *testing.T) {
	recs := []trace.Record{
		rec(1.0, 1, 1, 1000, 1500),
		rec(1.5, 1, 1, 1000, 1500),
		rec(3.0, 1, 1, 1000, 500),
	}
	res, err := measureRecords(recs, By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 {
		t.Fatalf("got %d flows, want 1", len(res.Flows))
	}
	f := res.Flows[0]
	if f.Start != 1.0 || f.End != 3.0 || f.Bytes != 3500 || f.Packets != 3 {
		t.Fatalf("flow = %+v", f)
	}
	if f.Duration() != 2.0 {
		t.Fatalf("duration = %g, want 2", f.Duration())
	}
	if f.SizeBits() != 28000 {
		t.Fatalf("size = %g bits, want 28000", f.SizeBits())
	}
}

func TestMeasureSeparatesKeys(t *testing.T) {
	recs := []trace.Record{
		rec(1, 1, 1, 1000, 100),
		rec(1.1, 2, 1, 1000, 100), // different source IP
		rec(1.2, 1, 1, 1000, 100),
		rec(1.3, 2, 1, 1000, 100),
		rec(1.4, 1, 1, 2000, 100), // different source port
		rec(1.5, 1, 1, 2000, 100),
	}
	res, err := measureRecords(recs, By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 3 {
		t.Fatalf("got %d flows, want 3", len(res.Flows))
	}
}

func TestPrefixAggregation(t *testing.T) {
	// Two 5-tuple flows to the same /24 must merge under ByPrefix24.
	recs := []trace.Record{
		rec(1, 1, 7, 1000, 100),
		rec(2, 2, 8, 2000, 100),
		rec(3, 1, 7, 1000, 100),
		rec(4, 2, 8, 2000, 100),
	}
	res5, err := measureRecords(recs, By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := measureRecords(recs, ByPrefix24, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res5.Flows) != 2 {
		t.Fatalf("5-tuple flows = %d, want 2", len(res5.Flows))
	}
	if len(resP.Flows) != 1 {
		t.Fatalf("prefix flows = %d, want 1", len(resP.Flows))
	}
	if resP.Flows[0].Bytes != 400 || resP.Flows[0].Duration() != 3 {
		t.Fatalf("merged flow = %+v", resP.Flows[0])
	}
}

func TestPrefix16And8(t *testing.T) {
	a := rec(1, 1, 1, 1000, 100)
	b := rec(2, 1, 1, 1000, 100)
	b.Hdr.DstIP = netpkt.IPv4Addr{172, 16, 200, 9} // same /16, different /24
	res24, err := measureRecords([]trace.Record{a, b}, ByPrefix24, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	res16, err := measureRecords([]trace.Record{a, b}, ByPrefix16, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// Under /24 both are single-packet flows (discarded); under /16 they
	// merge into one 2-packet flow.
	if len(res24.Flows) != 0 || len(res24.Discarded) != 2 {
		t.Fatalf("/24: flows=%d discarded=%d, want 0/2", len(res24.Flows), len(res24.Discarded))
	}
	if len(res16.Flows) != 1 {
		t.Fatalf("/16: flows=%d, want 1", len(res16.Flows))
	}
	c := rec(3, 1, 1, 1000, 100)
	c.Hdr.DstIP = netpkt.IPv4Addr{172, 99, 0, 1} // same /8 only
	res8, err := measureRecords([]trace.Record{a, b, c}, ByPrefix8, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res8.Flows) != 1 || res8.Flows[0].Packets != 3 {
		t.Fatalf("/8: %+v", res8.Flows)
	}
}

func TestTimeoutSplitsFlows(t *testing.T) {
	recs := []trace.Record{
		rec(0, 1, 1, 1000, 100),
		rec(10, 1, 1, 1000, 100),
		rec(100, 1, 1, 1000, 100), // 90 s gap > 60 s timeout -> new flow
		rec(110, 1, 1, 1000, 100),
	}
	res, err := measureRecords(recs, By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("got %d flows, want 2 (timeout split)", len(res.Flows))
	}
	if res.Flows[0].Start != 0 || res.Flows[0].End != 10 {
		t.Fatalf("first flow = %+v", res.Flows[0])
	}
	if res.Flows[1].Start != 100 || res.Flows[1].End != 110 {
		t.Fatalf("second flow = %+v", res.Flows[1])
	}
}

func TestGapJustUnderTimeoutKeepsFlow(t *testing.T) {
	recs := []trace.Record{
		rec(0, 1, 1, 1000, 100),
		rec(59.9, 1, 1, 1000, 100),
		rec(119.8, 1, 1, 1000, 100),
	}
	res, err := measureRecords(recs, By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 || res.Flows[0].Packets != 3 {
		t.Fatalf("flows = %+v, want one 3-packet flow", res.Flows)
	}
}

func TestSinglePacketFlowsDiscarded(t *testing.T) {
	recs := []trace.Record{
		rec(1, 1, 1, 1000, 700), // lone packet
		rec(2, 2, 2, 2000, 100),
		rec(3, 2, 2, 2000, 100),
	}
	res, err := measureRecords(recs, By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(res.Flows))
	}
	if len(res.Discarded) != 1 {
		t.Fatalf("discarded = %d, want 1", len(res.Discarded))
	}
	d := res.Discarded[0]
	if d.Time != 1 || d.Bits != 5600 {
		t.Fatalf("discarded packet = %+v", d)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	a, err := NewAssembler(By5Tuple, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(rec(5, 1, 1, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(rec(4, 1, 1, 1, 100)); err == nil {
		t.Fatal("out-of-order packet should be rejected")
	}
}

func TestFlushResetsAndSplits(t *testing.T) {
	a, err := NewAssembler(By5Tuple, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []trace.Record{rec(1, 1, 1, 1, 100), rec(2, 1, 1, 1, 100)} {
		if err := a.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	first := a.Flush()
	if len(first.Flows) != 1 {
		t.Fatalf("first flush flows = %d", len(first.Flows))
	}
	// The same 5-tuple continues: it must appear again as a new flow
	// (the paper's boundary splitting).
	for _, r := range []trace.Record{rec(3, 1, 1, 1, 100), rec(4, 1, 1, 1, 100)} {
		if err := a.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	second := a.Flush()
	if len(second.Flows) != 1 {
		t.Fatalf("second flush flows = %d", len(second.Flows))
	}
	if second.Flows[0].Start != 3 {
		t.Fatalf("continuation flow start = %g, want 3", second.Flows[0].Start)
	}
}

func TestEvictionSweepBoundsMemory(t *testing.T) {
	a, err := NewAssembler(By5Tuple, 60)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 flows, each two packets, spread over 1000 s: at any time only a
	// handful are active, and the sweep must have evicted old ones.
	for i := 0; i < 1000; i++ {
		t0 := float64(i)
		if err := a.Add(rec(t0, byte(i%250), byte(i/250), uint16(i), 100)); err != nil {
			t.Fatal(err)
		}
		if err := a.Add(rec(t0+0.5, byte(i%250), byte(i/250), uint16(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if a.ActiveFlows() > 200 {
		t.Fatalf("sweep failed: %d active flows retained", a.ActiveFlows())
	}
	res := a.Flush()
	if len(res.Flows) != 1000 {
		t.Fatalf("flows = %d, want 1000", len(res.Flows))
	}
}

func TestMeasureIntervalsSplitsAtBoundaries(t *testing.T) {
	// One flow spanning t=50..130 over 60 s intervals must appear in
	// intervals 0, 1 and 2.
	var recs []trace.Record
	for ts := 50.0; ts <= 130; ts += 5 {
		recs = append(recs, rec(ts, 1, 1, 1000, 100))
	}
	ivs, err := measureRecIntervals(recs, By5Tuple, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 3 {
		t.Fatalf("intervals = %d, want 3", len(ivs))
	}
	for i, iv := range ivs {
		if len(iv.Flows) != 1 {
			t.Fatalf("interval %d flows = %d, want 1 (split flow)", i, len(iv.Flows))
		}
		f := iv.Flows[0]
		if f.Start < 0 || f.End >= 60 {
			t.Fatalf("interval %d flow not rebased: %+v", i, f)
		}
	}
	// Total split-flow count exceeds the unsplit count by the number of
	// boundaries crossed (2): the whole-trace measurement sees one flow.
	whole, err := measureRecords(recs, By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Flows) != 1 {
		t.Fatalf("unsplit flows = %d, want 1", len(whole.Flows))
	}
}

func TestMeasureIntervalsEmptyGap(t *testing.T) {
	recs := []trace.Record{
		rec(10, 1, 1, 1, 100), rec(11, 1, 1, 1, 100),
		// nothing in interval 1 (60..120)
		rec(130, 2, 2, 2, 100), rec(131, 2, 2, 2, 100),
	}
	ivs, err := measureRecIntervals(recs, By5Tuple, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 3 {
		t.Fatalf("intervals = %d, want 3 (middle one empty)", len(ivs))
	}
	if len(ivs[1].Flows) != 0 || len(ivs[1].Discarded) != 0 {
		t.Fatalf("middle interval not empty: %+v", ivs[1])
	}
	if ivs[1].Start != 60 {
		t.Fatalf("middle interval start = %g", ivs[1].Start)
	}
}

func TestMeasureIntervalsValidation(t *testing.T) {
	if _, err := measureRecIntervals(nil, By5Tuple, 0); err == nil {
		t.Fatal("zero interval should be rejected")
	}
	if _, err := measureRecIntervals(nil, By5Tuple, -1); err == nil {
		t.Fatal("negative interval should be rejected")
	}
	if _, err := MeasureIntervals(recordFeed(nil, 1), nil, 60, DefaultTimeout); err == nil {
		t.Fatal("empty definition list should be rejected")
	}
	if _, err := measureRecords(nil, Definition(99), 60); err == nil {
		t.Fatal("unknown definition should be rejected")
	}
}

func TestDefinitionString(t *testing.T) {
	if By5Tuple.String() != "5-tuple" || ByPrefix24.String() != "/24 prefix" {
		t.Fatal("definition names wrong")
	}
	if Definition(42).String() == "" {
		t.Fatal("unknown definition should still format")
	}
}

// End-to-end: measure a synthetic trace and verify the flow-level view is
// consistent with what the generator drew.
func TestMeasureSyntheticTrace(t *testing.T) {
	size, _ := dist.NewBoundedPareto(1.3, 3000, 300000)
	rate, _ := dist.LognormalFromMoments(250e3, 1)
	cfg := trace.Config{
		Duration:  60,
		Lambda:    50,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: 1},
		Warmup:    90, // sessions spread flows ~20 s; see trace.Config
		Seed:      42,
	}
	recs, sum, err := generateRecords(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := measureRecords(recs, By5Tuple, DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	nFlows := len(res.Flows) + len(res.Discarded)
	// Some generated flows may be split by the timeout or truncated at the
	// horizon, but the counts must be close.
	if math.Abs(float64(nFlows)-float64(sum.Flows))/float64(sum.Flows) > 0.05 {
		t.Fatalf("measured %d flows, generator drew %d", nFlows, sum.Flows)
	}
	// λ̂ from the measured flows matches the realised generator rate
	// tightly, and the configured λ loosely (session clustering makes the
	// per-window flow count noisier than a plain Poisson count).
	lambdaHat := float64(nFlows) / cfg.Duration
	if math.Abs(lambdaHat-sum.FlowRate)/sum.FlowRate > 0.05 {
		t.Fatalf("λ̂ = %g, realised rate %g", lambdaHat, sum.FlowRate)
	}
	if math.Abs(lambdaHat-cfg.Lambda)/cfg.Lambda > 0.35 {
		t.Fatalf("λ̂ = %g implausibly far from configured λ %g", lambdaHat, cfg.Lambda)
	}
	// Byte conservation: flows + discarded == all packets.
	var flowBits, discBits float64
	for _, f := range res.Flows {
		flowBits += f.SizeBits()
	}
	for _, d := range res.Discarded {
		discBits += d.Bits
	}
	if total := float64(sum.Bytes) * 8; math.Abs(flowBits+discBits-total) > 1 {
		t.Fatalf("bit conservation: flows %g + discarded %g != total %g",
			flowBits, discBits, total)
	}
	// Durations are positive and below the interval length.
	for _, f := range res.Flows {
		if f.Duration() <= 0 || f.Duration() > cfg.Duration {
			t.Fatalf("bad duration %g", f.Duration())
		}
	}
}
