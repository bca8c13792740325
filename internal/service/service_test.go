package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/snapshot"
	"repro/internal/trace"
	tracestore "repro/internal/trace/store"
)

// Test geometry: 2 s analysis intervals over 6 s epochs, so every epoch
// spans three intervals and epoch boundaries never coincide with block
// boundaries.
const (
	tInterval = 2.0
	tDelta    = 0.1
	tEpoch    = 6.0
)

func testBase(seed int64) trace.Config {
	return trace.Config{
		Duration:  tEpoch,
		Lambda:    40,
		SizeBytes: dist.Constant{V: 20000},
		RateBps:   dist.Constant{V: 1e6},
		ShotB:     dist.Constant{V: 1},
		Seed:      seed,
	}
}

func testPipeCfg(reps *[]Report) PipelineConfig {
	return PipelineConfig{
		IntervalSec: tInterval,
		Delta:       tDelta,
		Window:      8,
		OnInterval: func(r Report) error {
			*reps = append(*reps, r)
			return nil
		},
	}
}

// checkNoLeaks asserts the run left nothing behind: every pooled block
// returned (exact, immediate) and the goroutine count settles back to its
// pre-run level.
func checkNoLeaks(t *testing.T, baseBlocks int64, baseGoroutines int) {
	t.Helper()
	if got := trace.LiveBlocks(); got != baseBlocks {
		t.Fatalf("leaked %d pool blocks", got-baseBlocks)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseGoroutines {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ownedBlocks materialises a source's whole stream into owned blocks so
// tests can feed the same packets to several pipelines and split the stream
// at arbitrary block boundaries.
func ownedBlocks(t *testing.T, src BlockSource) []*trace.Block {
	t.Helper()
	var out []*trace.Block
	err := src.Stream(context.Background(), Cursor{}, func(_ int64, blk *trace.Block) error {
		ob := trace.GetBlock()
		ob.AppendRebased(blk, 0, blk.Len(), 0)
		out = append(out, ob)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func putAll(bs []*trace.Block) {
	for _, b := range bs {
		trace.PutBlock(b)
	}
}

func feedAll(t *testing.T, p *Pipeline, blocks []*trace.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := p.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
}

func countPackets(bs []*trace.Block) int64 {
	var n int64
	for _, b := range bs {
		n += int64(b.Len())
	}
	return n
}

func TestPipelineConfigValidation(t *testing.T) {
	bad := []PipelineConfig{
		{IntervalSec: 0, Delta: 0.1},
		{IntervalSec: 2, Delta: 0},
		{IntervalSec: 2, Delta: 3}, // delta > interval
		{IntervalSec: 2, Delta: 0.1, Window: 1},
		{IntervalSec: 2, Delta: 0.1, Window: predictOrder + 1},
	}
	for i, cfg := range bad {
		if _, err := NewPipeline(cfg); err == nil {
			t.Fatalf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := NewPipeline(PipelineConfig{IntervalSec: 2, Delta: 0.1}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestPipelineStreamReports(t *testing.T) {
	blocks := ownedBlocks(t, &SyntheticSource{Base: testBase(7), Epochs: 2})
	defer putAll(blocks)

	var reps []Report
	p, err := NewPipeline(testPipeCfg(&reps))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, p, blocks)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}

	wantIntervals := int(2 * tEpoch / tInterval) // 6
	if len(reps) != wantIntervals {
		t.Fatalf("got %d reports, want %d", len(reps), wantIntervals)
	}
	var pkts int64
	for i, r := range reps {
		if r.Index != i {
			t.Fatalf("report %d has index %d", i, r.Index)
		}
		if r.Start != float64(i)*tInterval {
			t.Fatalf("report %d starts at %g", i, r.Start)
		}
		if r.Partial != (i == wantIntervals-1) {
			t.Fatalf("report %d partial=%v", i, r.Partial)
		}
		if r.Packets == 0 || r.Flows == 0 {
			t.Fatalf("report %d is empty: %+v", i, r)
		}
		if r.MeasMean <= 0 {
			t.Fatalf("report %d mean rate %g", i, r.MeasMean)
		}
		if r.Lambda <= 0 || r.MeanS <= 0 || r.MeanS2oD <= 0 {
			t.Fatalf("report %d has no model inputs: %+v", i, r)
		}
		if i < 4 && r.HasPrediction {
			t.Fatalf("report %d predicted before enough history", i)
		}
		pkts += r.Packets
	}
	if want := countPackets(blocks); pkts != want {
		t.Fatalf("reports account for %d packets, stream had %d", pkts, want)
	}
	// With a full window of history the one-step predictor must be live.
	if last := reps[len(reps)-1]; !last.HasPrediction {
		t.Fatalf("no prediction with %d intervals of history", len(reps)-1)
	}
	if p.Interval() != wantIntervals {
		t.Fatalf("clock at interval %d after the drain, want %d", p.Interval(), wantIntervals)
	}
}

// Cutting the stream at any interval boundary must be observationally
// invisible: checkpoint right after the AddBlock that closed an interval,
// round-trip the checkpoint through the on-disk frame codec, restore it into
// a fresh pipeline and feed that from the open interval's first packet —
// the restored pipeline emits exactly the uninterrupted run's remaining
// reports and ends in the same state. Between boundaries the checkpoint
// does not move: nothing measured inside an interval is persisted.
func TestPipelineSnapshotDifferential(t *testing.T) {
	blocks := ownedBlocks(t, &SyntheticSource{Base: testBase(11), Epochs: 2})
	defer putAll(blocks)

	type cut struct {
		secs          []snapshot.Section
		block, offset int // the open interval starts at blocks[block].Times[offset]
		reported      int // reports emitted before the cut
	}
	var golden []Report
	pg, err := NewPipeline(testPipeCfg(&golden))
	if err != nil {
		t.Fatal(err)
	}
	var cuts []cut
	var bi int
	closed := false
	pg.onClose = func(opened int) error {
		closed = true
		var buf bytes.Buffer
		if err := snapshot.Encode(&buf, uint64(len(cuts)), pg.Snapshot()); err != nil {
			return err
		}
		secs, _, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			return err
		}
		cuts = append(cuts, cut{secs, bi, opened, len(golden)})
		return nil
	}
	last := pg.Snapshot()
	for bi = range blocks {
		closed = false
		if err := pg.AddBlock(blocks[bi]); err != nil {
			t.Fatal(err)
		}
		if !closed {
			if !reflect.DeepEqual(pg.Snapshot(), last) {
				t.Fatalf("block %d closed no interval but moved the checkpoint", bi)
			}
			continue
		}
		last = pg.Snapshot()
	}
	if err := pg.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := len(golden) - 1; len(cuts) != want {
		t.Fatalf("%d boundary cuts over %d intervals, want %d", len(cuts), len(golden), want)
	}

	for _, c := range cuts {
		var reps []Report
		pc, err := NewPipeline(testPipeCfg(&reps))
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.Restore(c.secs); err != nil {
			t.Fatalf("cut before interval %d: restore: %v", c.reported, err)
		}
		if pc.Interval() != c.reported {
			t.Fatalf("restored at interval %d, want %d", pc.Interval(), c.reported)
		}
		rest := blocks[c.block].Slice(c.offset, blocks[c.block].Len())
		if err := pc.AddBlock(&rest); err != nil {
			t.Fatal(err)
		}
		feedAll(t, pc, blocks[c.block+1:])
		if err := pc.Drain(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reps, golden[c.reported:]) {
			t.Fatalf("cut before interval %d: restored pipeline reports diverge from the uninterrupted run", c.reported)
		}
		if !reflect.DeepEqual(pg.Snapshot(), pc.Snapshot()) {
			t.Fatalf("cut before interval %d: final states differ between live and restored pipelines", c.reported)
		}
	}
}

func TestPipelineRestoreRejectsMismatchedConfig(t *testing.T) {
	blocks := ownedBlocks(t, &SyntheticSource{Base: testBase(13), Epochs: 1})
	defer putAll(blocks)

	var reps []Report
	pa, err := NewPipeline(testPipeCfg(&reps))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, pa, blocks)
	secs := pa.Snapshot()

	other := testPipeCfg(&reps)
	other.Delta = 0.05
	pb, err := NewPipeline(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Restore(secs); err == nil {
		t.Fatal("checkpoint from a different geometry restored silently")
	}
	if pb.Interval() != 0 || pb.ActiveFlows() != 0 {
		t.Fatal("failed restore left state behind")
	}
	// The rejected pipeline must still work as a fresh one.
	feedAll(t, pb, blocks)
	if err := pb.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineRejectsDisorderedInput(t *testing.T) {
	var reps []Report
	p, err := NewPipeline(testPipeCfg(&reps))
	if err != nil {
		t.Fatal(err)
	}
	blk := trace.GetBlock()
	defer trace.PutBlock(blk)
	blk.Append(-1, 100, 1, 2)
	if err := p.AddBlock(blk); err == nil {
		t.Fatal("negative time accepted")
	}
	blk.Reset()
	blk.Append(5, 100, 1, 2)
	if err := p.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	blk.Reset()
	blk.Append(1, 100, 1, 2)
	if err := p.AddBlock(blk); err == nil {
		t.Fatal("time reversal across blocks accepted")
	}
}

func TestPipelineDrainIsIdempotent(t *testing.T) {
	var reps []Report
	p, err := NewPipeline(testPipeCfg(&reps))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(); err != nil || len(reps) != 0 {
		t.Fatalf("drain of a fresh pipeline: err %v, %d reports", err, len(reps))
	}
	blk := trace.GetBlock()
	defer trace.PutBlock(blk)
	blk.Append(0.5, 1000, 1, 2)
	blk.Append(0.9, 1000, 1, 2)
	if err := p.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Partial || reps[0].Packets != 2 {
		t.Fatalf("partial drain reports = %+v", reps)
	}
	if err := p.Drain(); err != nil || len(reps) != 1 {
		t.Fatalf("second drain: err %v, %d reports", err, len(reps))
	}
}

// flatPkt is one packet of a flattened source stream, for exact comparison.
type flatPkt struct {
	epoch int64
	t     float64
	size  uint16
	src   uint64
	dst   uint64
}

func flatten(t *testing.T, src BlockSource, cur Cursor) []flatPkt {
	t.Helper()
	var out []flatPkt
	err := src.Stream(context.Background(), cur, func(epoch int64, blk *trace.Block) error {
		for i := 0; i < blk.Len(); i++ {
			out = append(out, flatPkt{epoch, blk.Times[i], blk.Sizes[i], blk.Srcs[i], blk.Dsts[i]})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Packet-exact resume: streaming from any cursor must produce exactly the
// suffix of the full stream — the property that makes checkpointed restarts
// bit-identical.
func TestSyntheticSourceResumesExactly(t *testing.T) {
	src := &SyntheticSource{Base: testBase(3), Epochs: 2}
	full := flatten(t, src, Cursor{})
	if len(full) == 0 {
		t.Fatal("empty stream")
	}
	epoch0 := 0
	for _, p := range full {
		if p.epoch == 0 {
			epoch0++
		}
	}
	cursors := []Cursor{
		{0, 0}, {0, 1}, {0, 255}, {0, 256}, {0, 257}, {0, int64(epoch0)},
		{1, 0}, {1, 37},
	}
	for _, cur := range cursors {
		skip := cur.Packets
		if cur.Epoch > 0 {
			skip += int64(epoch0)
		}
		suffix := flatten(t, src, cur)
		if !reflect.DeepEqual(full[skip:], suffix) {
			t.Fatalf("cursor %+v: resumed stream is not the exact suffix", cur)
		}
	}
	// Parallel generation must produce the identical stream.
	par := &SyntheticSource{Base: testBase(3), Epochs: 2, GenWorkers: 4}
	if got := flatten(t, par, Cursor{1, 37}); !reflect.DeepEqual(full[epoch0+37:], got) {
		t.Fatal("parallel generation diverges from serial")
	}
}

func TestSyntheticSourceRejectsBadConfig(t *testing.T) {
	noDur := &SyntheticSource{Base: trace.Config{}}
	if err := noDur.Stream(context.Background(), Cursor{}, nil); !errors.Is(err, ErrPermanent) {
		t.Fatalf("zero duration: %v", err)
	}
	infDur := &SyntheticSource{Base: trace.Config{Duration: math.Inf(1)}}
	if err := infDur.Stream(context.Background(), Cursor{}, nil); !errors.Is(err, ErrPermanent) {
		t.Fatalf("infinite duration: %v", err)
	}
	mut := &SyntheticSource{Base: testBase(1), Epochs: 1, Mutate: func(_ int64, cfg *trace.Config) {
		cfg.Seed++
	}}
	err := mut.Stream(context.Background(), Cursor{}, func(int64, *trace.Block) error { return nil })
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("seed-changing mutate: %v", err)
	}
}

// storeFromPackets writes all's packets into a trace store file
// (deliberately odd segment size so resume cursors cross segment
// boundaries) and opens it.
func storeFromPackets(t *testing.T, all *trace.Block, dur float64) *tracestore.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "replay.fstore")
	w, err := tracestore.Create(path, tracestore.Meta{Duration: dur}, tracestore.Options{SegmentPackets: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < all.Len(); i += trace.BlockSize {
		blk := all.Slice(i, min(i+trace.BlockSize, all.Len()))
		if err := w.AddBlock(&blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(trace.Summary{Packets: int64(all.Len()), Duration: dur}); err != nil {
		t.Fatal(err)
	}
	r, err := tracestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestReplaySourceResumesExactly(t *testing.T) {
	all := synthPackets(t, testBase(5))
	n := int64(all.Len())
	r := storeFromPackets(t, all, tEpoch)
	src := &ReplaySource{Reader: r, Duration: tEpoch, Epochs: 2}
	full := flatten(t, src, Cursor{})
	if int64(len(full)) != 2*n {
		t.Fatalf("replayed %d packets from %d stored over 2 epochs", len(full), n)
	}
	for _, cur := range []Cursor{{0, 5}, {0, n}, {1, 0}, {1, n - 1}} {
		skip := cur.Packets + cur.Epoch*n
		if got := flatten(t, src, cur); !reflect.DeepEqual(full[skip:], got) {
			t.Fatalf("cursor %+v: resumed replay is not the exact suffix", cur)
		}
	}

	// Duration 0 defaults to the store's recorded trace duration.
	def := &ReplaySource{Reader: r, Epochs: 1}
	if got := flatten(t, def, Cursor{}); !reflect.DeepEqual(full[:n], got) {
		t.Fatal("default duration does not replay the stored epoch")
	}

	noReader := &ReplaySource{Duration: 1}
	if err := noReader.Stream(context.Background(), Cursor{}, nil); !errors.Is(err, ErrPermanent) {
		t.Fatalf("reader-less replay: %v", err)
	}
	empty := &ReplaySource{Reader: storeFromPackets(t, &trace.Block{}, 1), Duration: 1}
	if err := empty.Stream(context.Background(), Cursor{}, nil); !errors.Is(err, ErrPermanent) {
		t.Fatalf("empty replay: %v", err)
	}
	short := &ReplaySource{Reader: r, Duration: all.Times[n-1] / 2}
	if err := short.Stream(context.Background(), Cursor{}, nil); !errors.Is(err, ErrPermanent) {
		t.Fatalf("short duration: %v", err)
	}
	far := &ReplaySource{Reader: r, Duration: tEpoch}
	if err := far.Stream(context.Background(), Cursor{Packets: n + 1}, nil); !errors.Is(err, ErrPermanent) {
		t.Fatalf("cursor past the epoch: %v", err)
	}
}

// waitQueueFull waits, with the measurement stalled after measured blocks,
// until the source has started the block past a full queue: delivered
// counts the blocks it started, and once it starts that one, every queued
// block has been sent.
func waitQueueFull(delivered *atomic.Int64, measured int64) error {
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < measured+queueLen+1 {
		if time.Now().After(deadline) {
			return fmt.Errorf("queue did not fill: %d blocks delivered, %d measured", delivered.Load(), measured)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// A stored trace far larger than the ingest queue must replay to
// completion with its blocks bounded by the queue's structure: the source
// holds one block of its own, the queue at most queueLen, and the
// measurement the one it is consuming. A consumer stalled at the first
// close lets the producer fill the queue, so the bound is also reached.
func TestReplayStoreLargerThanQueue(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	cfg := testBase(29)
	cfg.Lambda = 400
	all := synthPackets(t, cfg)
	r := storeFromPackets(t, all, tEpoch)
	if stored := r.Packets(); stored <= queuePackets {
		t.Fatalf("fixture too small: %d stored packets vs a %d-packet queue", stored, queuePackets)
	}
	// 2: the source's own block and the block the measurement holds.
	bound := baseBlocks + queueLen + 2
	var delivered, peak atomic.Int64
	var link *Link
	var reps []Report
	pipe := testPipeCfg(&reps)
	inner := pipe.OnInterval
	pipe.OnInterval = func(r Report) error {
		if r.Index == 0 {
			if err := waitQueueFull(&delivered, link.Stats().Blocks+1); err != nil {
				return err
			}
		}
		return inner(r)
	}
	link, err := NewLink(LinkConfig{
		Name: "bounded-replay",
		Source: &hookSource{
			inner: &ReplaySource{Reader: r, Duration: tEpoch, Epochs: 2},
			hook: func(int64, *trace.Block) error {
				delivered.Add(1)
				if live := trace.LiveBlocks(); live > peak.Load() {
					peak.Store(live)
				}
				return nil
			},
		},
		Pipeline: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := link.Stats(); st.Packets != 2*int64(all.Len()) || st.ShedPackets != 0 {
		t.Fatalf("measured %d packets and shed %d, want %d and none", st.Packets, st.ShedPackets, 2*all.Len())
	}
	if got := peak.Load(); got != bound {
		t.Fatalf("live blocks peaked at %d, structural bound is %d", got, bound)
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

func TestLinkBoundedRunDrainsAndCheckpoints(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	store, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var reps []Report
	link, err := NewLink(LinkConfig{
		Name:     "l0",
		Source:   &SyntheticSource{Base: testBase(21), Epochs: 2},
		Pipeline: testPipeCfg(&reps),
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The link's reports must be exactly what a direct feed produces.
	blocks := ownedBlocks(t, &SyntheticSource{Base: testBase(21), Epochs: 2})
	var golden []Report
	pg, err := NewPipeline(testPipeCfg(&golden))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, pg, blocks)
	if err := pg.Drain(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reps, golden) {
		t.Fatal("link reports differ from a direct pipeline feed")
	}

	st := link.Stats()
	if st.FreshStarts != 1 || st.Restores != 0 {
		t.Fatalf("first run stats: %+v", st)
	}
	if st.Checkpoints < 2 {
		t.Fatalf("only %d checkpoints over %d intervals", st.Checkpoints, len(reps))
	}
	if want := countPackets(blocks); st.Packets != want {
		t.Fatalf("link counted %d packets, stream had %d", st.Packets, want)
	}
	putAll(blocks)

	// Re-running against the final checkpoint resumes at end-of-stream:
	// no duplicate reports, one restore, still a clean stop.
	n := len(reps)
	if err := link.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(reps) != n {
		t.Fatalf("resumed run re-emitted %d reports", len(reps)-n)
	}
	if st := link.Stats(); st.Restores != 1 {
		t.Fatalf("second run stats: %+v", st)
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// endSource closes done when the wrapped source's Stream returns.
type endSource struct {
	inner BlockSource
	done  chan struct{}
}

func (s *endSource) Stream(ctx context.Context, cur Cursor, fn func(int64, *trace.Block) error) error {
	defer close(s.done)
	return s.inner.Stream(ctx, cur, fn)
}

// stallFirstClose returns cfg with its first interval close blocked until
// src has delivered its whole stream, and where it records the blocks
// measured at that stall, the one being measured included. The stalled
// measurement holds one block, the queue fills, and every later block meets
// a full queue: with Shed it is dropped, without it the source blocks and
// the stall times out.
func stallFirstClose(cfg PipelineConfig, src *endSource, link **Link) (PipelineConfig, *int64) {
	measured := int64(-1)
	inner := cfg.OnInterval
	cfg.OnInterval = func(r Report) error {
		if measured < 0 {
			measured = (*link).Stats().Blocks + 1
			select {
			case <-src.done:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("the source did not finish while the measurement stalled")
			}
		}
		return inner(r)
	}
	return cfg, &measured
}

func TestLinkShedAccountingIsExact(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	const seed, epochs = 9, 10
	blocks := ownedBlocks(t, &SyntheticSource{Base: testBase(seed), Epochs: epochs})
	total := countPackets(blocks)
	nBlocks := int64(len(blocks))
	putAll(blocks)

	var reps []Report
	var link *Link
	src := &endSource{inner: &SyntheticSource{Base: testBase(seed), Epochs: epochs}, done: make(chan struct{})}
	cfg, measured := stallFirstClose(testPipeCfg(&reps), src, &link)
	link, err := NewLink(LinkConfig{
		Name:     "shed",
		Source:   src,
		Pipeline: cfg,
		Shed:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := link.Stats()
	want := nBlocks - *measured - queueLen
	if want <= 0 {
		t.Fatalf("fixture too small: %d blocks, %d measured at the stall", nBlocks, *measured)
	}
	if st.ShedBlocks != want {
		t.Fatalf("shed %d blocks, want %d of %d (%d measured at the stall, %d queued)", st.ShedBlocks, want, nBlocks, *measured, queueLen)
	}
	if st.Packets+st.ShedPackets != total {
		t.Fatalf("measured %d + shed %d packets, stream had %d", st.Packets, st.ShedPackets, total)
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// Shed packets still advance the source, so checkpoint cursors count them:
// a link stopped mid-stream resumes at the boundary it checkpointed, and a
// finished stream re-runs to nothing, instead of replaying packets of an
// interval it already closed.
func TestLinkShedCursorCountsShedPackets(t *testing.T) {
	store, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 10
	run := func(ctx context.Context, cfg PipelineConfig) LinkStats {
		var link *Link
		src := &endSource{inner: &SyntheticSource{Base: testBase(71), Epochs: epochs}, done: make(chan struct{})}
		cfg, _ = stallFirstClose(cfg, src, &link)
		link, err := NewLink(LinkConfig{
			Name:     "shed-ckpt",
			Source:   src,
			Pipeline: cfg,
			Store:    store,
			Shed:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := link.Run(ctx); err != nil && Classify(err) != Canceled {
			t.Fatalf("run ended with %v", err)
		}
		return link.Stats()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reps1 []Report
	cfg := testPipeCfg(&reps1)
	inner := cfg.OnInterval
	cfg.OnInterval = func(r Report) error {
		if len(reps1) == 1 {
			cancel()
		}
		return inner(r)
	}
	if st := run(ctx, cfg); st.ShedPackets == 0 {
		t.Fatalf("the first run shed nothing: %+v", st)
	}
	var reps2 []Report
	if st := run(context.Background(), testPipeCfg(&reps2)); st.ShedPackets == 0 {
		t.Fatalf("the resumed run shed nothing: %+v", st)
	}
	if drained := reps1[len(reps1)-1]; len(reps2) == 0 || reps2[0].Index != drained.Index {
		t.Fatalf("resumed at %+v, want the drained interval %d", reps2, drained.Index)
	}
	var reps3 []Report
	run(context.Background(), testPipeCfg(&reps3))
	if len(reps3) != 0 {
		t.Fatalf("re-run of a finished stream emitted %d reports", len(reps3))
	}
}

func TestLinkCancellationDrainsAndCheckpoints(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	store, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reps []Report
	cfg := testPipeCfg(&reps)
	inner := cfg.OnInterval
	cfg.OnInterval = func(r Report) error {
		if err := inner(r); err != nil {
			return err
		}
		if len(reps) == 3 {
			cancel() // SIGTERM mid-stream
		}
		return nil
	}
	link, err := NewLink(LinkConfig{
		Name:     "term",
		Source:   &SyntheticSource{Base: testBase(17), GenWorkers: 2}, // unbounded
		Pipeline: cfg,
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = link.Run(ctx)
	if err == nil || Classify(err) != Canceled {
		t.Fatalf("cancelled run returned %v", err)
	}
	if len(reps) < 3 {
		t.Fatalf("only %d reports before cancellation", len(reps))
	}
	if last := reps[len(reps)-1]; !last.Partial {
		t.Fatalf("cancellation drained no partial interval: %+v", last)
	}
	if st := link.Stats(); st.Checkpoints < 3 {
		t.Fatalf("%d checkpoints over %d interval closes: %+v", st.Checkpoints, len(reps)-1, st)
	}
	// The drain writes no checkpoint: the newest one is the boundary that
	// opened the drained interval, with a usable cursor.
	secs, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	var dummy []Report
	p, err := NewPipeline(testPipeCfg(&dummy))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(secs); err != nil {
		t.Fatalf("newest checkpoint does not restore: %v", err)
	}
	if drained := reps[len(reps)-1].Index; p.Interval() != drained {
		t.Fatalf("newest checkpoint resumes at interval %d, want the drained interval %d", p.Interval(), drained)
	}
	cur, err := DecodeCursor(secs)
	if err != nil || (cur == Cursor{}) {
		t.Fatalf("final cursor %+v, err %v", cur, err)
	}

	// Under the supervisor, cancellation is a clean stop.
	if err := newTestSupervisorReal(t).Run(ctx, link.Run); err != nil {
		t.Fatalf("supervisor turned cancellation into %v", err)
	}
	checkNoLeaks(t, baseBlocks, baseGoroutines)
}

// errKilled stops a test run at a chosen report, as a SIGKILL would: no
// drain, no further checkpoint.
var errKilled = errors.New("test: killed after a report")

// A sparse link crosses several interval boundaries inside one block. Each
// close still writes its own checkpoint, so a run killed right after report
// k resumes with interval k, never earlier.
func TestLinkCheckpointsEveryClose(t *testing.T) {
	src := &SyntheticSource{Base: trace.Config{
		Duration:  600,
		Lambda:    0.5,
		SizeBytes: dist.Constant{V: 20000},
		RateBps:   dist.Constant{V: 1e6},
		ShotB:     dist.Constant{V: 1},
		Seed:      5,
	}, Epochs: 1}
	pipeCfg := func(reps *[]Report, killAt int) PipelineConfig {
		c := testPipeCfg(reps)
		c.IntervalSec = 5
		inner := c.OnInterval
		c.OnInterval = func(r Report) error {
			if err := inner(r); err != nil {
				return err
			}
			if r.Index == killAt {
				return MarkPermanent(errKilled)
			}
			return nil
		}
		return c
	}
	run := func(store *snapshot.Store, killAt int) ([]Report, LinkStats) {
		t.Helper()
		var reps []Report
		link, err := NewLink(LinkConfig{Name: "sparse", Source: src, Pipeline: pipeCfg(&reps, killAt), Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if err := link.Run(context.Background()); err != nil && !errors.Is(err, errKilled) {
			t.Fatal(err)
		}
		return reps, link.Stats()
	}

	store, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	golden, st := run(store, -1)
	closes := 0
	for _, r := range golden {
		if !r.Partial {
			closes++
		}
	}
	if st.Blocks >= int64(closes) {
		t.Fatalf("fixture too dense: %d blocks for %d closes, so no block closes several intervals", st.Blocks, closes)
	}
	// One checkpoint per close plus the end of the bounded source.
	if st.Checkpoints != int64(closes)+1 {
		t.Fatalf("%d checkpoints for %d closes and one end of stream", st.Checkpoints, closes)
	}

	for k := 0; k < len(golden); k += 13 {
		store, err := snapshot.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if reps, _ := run(store, k); len(reps) != k+1 {
			t.Fatalf("kill after report %d: the run emitted %d reports", k, len(reps))
		}
		reps, _ := run(store, k)
		if len(reps) == 0 {
			t.Fatalf("killed after report %d, the restart reported nothing", k)
		}
		if !reflect.DeepEqual(reps[0], golden[k]) {
			t.Fatalf("killed after report %d, the restart resumed with interval %d, want interval %d again", k, reps[0].Index, k)
		}
	}
}

// After a cancel the link stops at the next block, even with its whole
// queue full: the queued blocks go back unmeasured, and the drained
// partial interval is exactly a direct feed of the blocks measured before
// the stop.
func TestLinkCancelStopsAtBlockBoundary(t *testing.T) {
	baseBlocks, baseGoroutines := trace.LiveBlocks(), runtime.NumGoroutine()
	const seed, epochs, cancelAt = 23, 10, 2
	blocks := ownedBlocks(t, &SyntheticSource{Base: testBase(seed), Epochs: epochs})
	defer putAll(blocks)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64 // blocks the source started to hand over
	var link *Link
	measured := int64(-1) // blocks measured when the cancel came, the current one included
	var reps []Report
	cfg := testPipeCfg(&reps)
	inner := cfg.OnInterval
	cfg.OnInterval = func(r Report) error {
		if r.Index == cancelAt {
			// The current block is the measured ones' successor.
			measured = link.Stats().Blocks + 1
			if err := waitQueueFull(&delivered, measured); err != nil {
				return err
			}
			cancel()
		}
		return inner(r)
	}
	link, err := NewLink(LinkConfig{
		Name: "cut",
		Source: &hookSource{
			inner: &SyntheticSource{Base: testBase(seed), Epochs: epochs},
			hook:  func(int64, *trace.Block) error { delivered.Add(1); return nil },
		},
		Pipeline: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Run(ctx); Classify(err) != Canceled || err == nil {
		t.Fatalf("cancelled run returned %v", err)
	}
	if measured < 0 {
		t.Fatal("the run never reached the cancel")
	}
	if st := link.Stats(); st.Blocks != measured {
		t.Fatalf("measured %d blocks, %d before the cancel: queued blocks were measured", st.Blocks, measured)
	}

	var golden []Report
	pg, err := NewPipeline(testPipeCfg(&golden))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, pg, blocks[:measured])
	if err := pg.Drain(); err != nil {
		t.Fatal(err)
	}
	if last := reps[len(reps)-1]; !last.Partial || last.Index <= cancelAt {
		t.Fatalf("the drain flushed %+v, want a partial interval after %d", last, cancelAt)
	}
	if !reflect.DeepEqual(reps, golden) {
		t.Fatal("link reports differ from a direct feed of the blocks measured before the cancel")
	}
	checkNoLeaks(t, baseBlocks+int64(len(blocks)), baseGoroutines)
}

// newTestSupervisorReal builds a supervisor on the real clock with
// microsecond-scale backoff, for end-to-end link tests.
func newTestSupervisorReal(t *testing.T) *Supervisor {
	t.Helper()
	b, err := NewBackoff(200*time.Microsecond, 2*time.Millisecond, 1, "test")
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBreaker(25, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Supervisor{Name: "test", Backoff: b, Breaker: br}
}
