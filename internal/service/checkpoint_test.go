package service

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// A version-1 checkpoint held the open interval's flow tables and rate bins
// and a mid-interval cursor. It fails the version check, so the link takes
// its fresh-start path and recomputes the stream from the start.
func TestLinkVersion1CheckpointStartsFresh(t *testing.T) {
	golden := goldenReports(t, 59, 1)
	store, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var meta snapshot.Enc
	meta.U64(1)
	meta.F64(tInterval)
	meta.F64(tDelta)
	meta.I64(8)
	if _, err := store.Save([]snapshot.Section{
		{Type: secMeta, Data: meta.Bytes()},
		EncodeCursor(Cursor{Packets: 1000}),
	}); err != nil {
		t.Fatal(err)
	}
	var reps []Report
	link, err := NewLink(LinkConfig{
		Name:     "v1",
		Source:   &SyntheticSource{Base: testBase(59), Epochs: 1},
		Pipeline: testPipeCfg(&reps),
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := link.Stats(); st.FreshStarts != 1 || st.Restores != 0 {
		t.Fatalf("stats after a version-1 checkpoint: %+v", st)
	}
	if !reflect.DeepEqual(reps, golden) {
		t.Fatal("fresh start after a version-1 checkpoint diverged from the golden run")
	}
}

// A source resumed at the wrong position can deliver packets of an interval
// the checkpoint already closed. The pipeline must refuse them with a
// permanent error naming the open interval, never fold them into it.
func TestPipelineRejectsResumeBeforeOpenInterval(t *testing.T) {
	blocks := ownedBlocks(t, &SyntheticSource{Base: testBase(61), Epochs: 2})
	defer putAll(blocks)
	var reps []Report
	pa, err := NewPipeline(testPipeCfg(&reps))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, pa, blocks)
	open := pa.Interval()
	if open < 3 {
		t.Fatalf("fixture closed only %d intervals", open)
	}

	pb, err := NewPipeline(testPipeCfg(&reps))
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Restore(pa.Snapshot()); err != nil {
		t.Fatal(err)
	}
	n := len(reps)
	err = pb.AddBlock(blocks[0])
	if !errors.Is(err, ErrPermanent) || !strings.Contains(err.Error(), "open interval "+strconv.Itoa(open)) {
		t.Fatalf("resume before interval %d: %v", open, err)
	}
	if len(reps) != n {
		t.Fatalf("the rejected block closed %d intervals", len(reps)-n)
	}
}

// The predictor history is the last Window interval means, oldest first:
// after Window+3 closes the means section holds exactly the last Window
// reported means. A checkpoint with more means than the window is damage,
// and restoring it leaves a fresh pipeline.
func TestPipelineMeansHistory(t *testing.T) {
	var reps []Report
	cfg := testPipeCfg(&reps)
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closes := cfg.Window + 3
	blk := trace.GetBlock()
	defer trace.PutBlock(blk)
	for i := 0; i <= closes; i++ {
		for k := 0; k <= i; k++ { // i+1 packets: every interval has its own mean
			blk.Append(float64(i)*tInterval+0.1*float64(k+1), 1000, 1, 2)
		}
	}
	if err := p.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	if len(reps) != closes {
		t.Fatalf("%d intervals closed, want %d", len(reps), closes)
	}
	var want []float64
	for _, r := range reps[closes-cfg.Window:] {
		want = append(want, r.MeasMean)
	}
	secs := p.Snapshot()
	means := snapshot.NewDec(sectionByType(secs, secMeans))
	if got := means.F64s(); means.Err() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("means section after %d closes = %v (%v), want %v", closes, got, means.Err(), want)
	}

	var long snapshot.Enc
	long.F64s(make([]float64, cfg.Window+1))
	secs[2] = snapshot.Section{Type: secMeans, Data: long.Bytes()}
	if err := p.Restore(secs); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("restoring %d means into a window of %d: %v, want ErrCorrupt", cfg.Window+1, cfg.Window, err)
	}
	fresh := snapshot.NewDec(sectionByType(p.Snapshot(), secMeans))
	if got := fresh.F64s(); len(got) != 0 || p.Interval() != 0 || p.ActiveFlows() != 0 {
		t.Fatalf("failed restore left %d means, interval %d, %d active flows", len(got), p.Interval(), p.ActiveFlows())
	}
}

// FuzzPipelineRestore feeds Restore and DecodeCursor checkpoint sections
// decoded from arbitrary bytes, seeded with a real boundary checkpoint, its
// truncations and bit flips. Whatever the input: no panic; allocation
// bounded by the input size; every error wraps snapshot.ErrCorrupt or names
// a configuration mismatch; and a failed restore leaves a fresh pipeline at
// interval 0 with no active flows that still measures.
func FuzzPipelineRestore(f *testing.F) {
	var reps []Report
	p, err := NewPipeline(testPipeCfg(&reps))
	if err != nil {
		f.Fatal(err)
	}
	src := &SyntheticSource{Base: testBase(67), Epochs: 1}
	if err := src.Stream(context.Background(), Cursor{}, func(_ int64, blk *trace.Block) error {
		return p.AddBlock(blk)
	}); err != nil {
		f.Fatal(err)
	}
	secs := p.Snapshot()
	meta, state, means := secs[0].Data, secs[1].Data, secs[2].Data
	cursor := EncodeCursor(Cursor{Epoch: 1, Packets: 7}).Data
	flip := func(b []byte, i int, bit byte) []byte {
		c := bytes.Clone(b)
		c[i] ^= bit
		return c
	}
	f.Add(meta, state, means, cursor)
	f.Add(meta[:len(meta)-3], state, means, cursor)
	f.Add(meta, state[:len(state)-1], means[:len(means)-8], cursor[:5])
	f.Add(flip(meta, 0, 0x01), state, means, cursor) // version 3
	f.Add(flip(meta, 8, 0x01), state, means, cursor) // interval off by an ulp
	f.Add(meta, flip(state, 7, 0x80), means, cursor) // negative interval index
	f.Add(meta, state, flip(means, 0, 0x40), cursor) // window longer than its capacity
	f.Add(meta, state, flip(means, 7, 0x10), flip(cursor, 15, 0x80))

	f.Fuzz(func(t *testing.T, meta, state, means, cursor []byte) {
		var reps []Report
		p, err := NewPipeline(testPipeCfg(&reps))
		if err != nil {
			t.Fatal(err)
		}
		secs := []snapshot.Section{
			{Type: secMeta, Data: meta},
			{Type: secState, Data: state},
			{Type: secMeans, Data: means},
			{Type: secCursor, Data: cursor},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rerr := p.Restore(secs)
		_, cerr := DecodeCursor(secs)
		runtime.ReadMemStats(&after)
		in := uint64(len(meta) + len(state) + len(means) + len(cursor))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+2*in {
			t.Fatalf("restoring %d input bytes allocated %d bytes", in, grew)
		}
		if cerr != nil && !errors.Is(cerr, snapshot.ErrCorrupt) {
			t.Fatalf("untagged cursor error: %v", cerr)
		}
		if rerr == nil {
			return
		}
		if !errors.Is(rerr, snapshot.ErrCorrupt) && !strings.Contains(rerr.Error(), "does not match the running configuration") {
			t.Fatalf("untagged restore error: %v", rerr)
		}
		if p.Interval() != 0 || p.ActiveFlows() != 0 {
			t.Fatalf("failed restore left interval %d, %d active flows", p.Interval(), p.ActiveFlows())
		}
		blk := trace.GetBlock()
		defer trace.PutBlock(blk)
		blk.Append(0.5, 1000, 1, 2)
		blk.Append(0.9, 1000, 1, 2)
		blk.Append(tInterval+0.5, 1000, 1, 2)
		if err := p.AddBlock(blk); err != nil {
			t.Fatalf("pipeline after a failed restore: %v", err)
		}
		if err := p.Drain(); err != nil || len(reps) != 2 || reps[0].Packets != 2 {
			t.Fatalf("pipeline after a failed restore: err %v, reports %+v", err, reps)
		}
	})
}
