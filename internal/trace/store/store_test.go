package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/netpkt"
	"repro/internal/trace"
)

func testCfg(seed int64) trace.Config {
	size, _ := dist.NewBoundedPareto(1.3, 2000, 200000)
	rate, _ := dist.LognormalFromMoments(200e3, 1)
	return trace.Config{
		Duration:  20,
		Lambda:    50,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: 1},
		Warmup:    60,
		Seed:      seed,
	}
}

// buildStore generates cfg's trace into a store file and returns its path.
func buildStore(t *testing.T, cfg trace.Config, every float64, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.fstore")
	if _, err := Generate(context.Background(), path, cfg, every, opts); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return path
}

// appendRecords unpacks blk's packets onto recs.
func appendRecords(recs []trace.Record, blk *trace.Block) []trace.Record {
	for i, t := range blk.Times {
		recs = append(recs, trace.Record{Time: t, Hdr: netpkt.HeaderFromPacked(blk.Srcs[i], blk.Dsts[i], blk.Sizes[i])})
	}
	return recs
}

// synthRecords synthesises cfg's trace serially into records: the
// reference a stored stream must reproduce.
func synthRecords(t *testing.T, cfg trace.Config) ([]trace.Record, trace.Summary) {
	t.Helper()
	var recs []trace.Record
	sum, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, func(blk *trace.Block) error {
		recs = appendRecords(recs, blk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, sum
}

// streamRecords drains the reader's full packet stream from the given
// packet offset.
func streamRecords(t *testing.T, r *Reader, start int64) []trace.Record {
	t.Helper()
	var recs []trace.Record
	err := r.Stream(context.Background(), start, func(blk *trace.Block) error {
		recs = appendRecords(recs, blk)
		return nil
	})
	if err != nil {
		t.Fatalf("Stream(from %d): %v", start, err)
	}
	return recs
}

func mustEqualRecords(t *testing.T, label string, got, want []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// The core round-trip contract: the file bytes are identical at any worker
// count, and the replayed stream is bit-identical to serial generation at
// any segment size.
func TestGenerateRoundTripDeterminism(t *testing.T) {
	cfg := testCfg(11)
	ref, refSum := synthRecords(t, cfg)
	for _, segPackets := range []int{64, 997, DefaultSegmentPackets} {
		var golden []byte
		for _, workers := range []int{1, 4} {
			path := buildStore(t, cfg, 5, Options{SegmentPackets: segPackets, Workers: workers})
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if golden == nil {
				golden = raw
			} else if !bytes.Equal(golden, raw) {
				t.Fatalf("seg %d: file bytes differ between 1 and %d workers", segPackets, workers)
			}
			r, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if r.Summary() != refSum {
				t.Fatalf("seg %d: summary %+v, want %+v", segPackets, r.Summary(), refSum)
			}
			if r.Packets() != int64(len(ref)) {
				t.Fatalf("seg %d: %d packets, want %d", segPackets, r.Packets(), len(ref))
			}
			mustEqualRecords(t, "full stream", streamRecords(t, r, 0), ref)
			r.Close()
		}
	}
}

// The stored stream cut to [lo, hi) and rebased to lo must be bit-identical
// to a window of the in-memory checkpoint index (which re-synthesises),
// shallow and deep: stored times are the generator's exact rebased times.
func TestWindowReplayBitIdentical(t *testing.T) {
	cfg := testCfg(12)
	path := buildStore(t, cfg, 4, Options{SegmentPackets: 512})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	full := streamRecords(t, r, 0)
	ck, err := trace.NewCheckpoints(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	windows := [][2]float64{{0, 3}, {5.25, 9.75}, {cfg.Duration - 2.5, cfg.Duration}, {0, cfg.Duration}}
	for _, b := range windows {
		ref, err := ck.Window(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		var got []trace.Record
		for _, rec := range full {
			if rec.Time >= b[0] && rec.Time < b[1] {
				rec.Time -= b[0]
				got = append(got, rec)
			}
		}
		mustEqualRecords(t, "window", got, slices.Collect(ref.Records()))
	}
}

// The footer-backed Checkpoints must replay bit-identically to the resident
// in-memory index over the same config — the differential test for the
// out-of-core checkpoint path.
func TestFooterCheckpointsDifferential(t *testing.T) {
	cfg := testCfg(13)
	const every = 4.0
	path := buildStore(t, cfg, every, Options{SegmentPackets: 1024})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.HasFooter() {
		t.Fatal("store has no footer")
	}
	mem, err := trace.NewCheckpoints(cfg, every)
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := r.Checkpoints(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Flows() != ooc.Flows() {
		t.Fatalf("footer indexes %d flows, in-memory %d", ooc.Flows(), mem.Flows())
	}
	windows := [][2]float64{{0, 2}, {3.5, 8.5}, {4, 8}, {11.1, 12.9}, {cfg.Duration - 1, cfg.Duration}, {0, cfg.Duration}}
	for _, b := range windows {
		wm, err := mem.Window(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		wo, err := ooc.Window(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRecords(t, "checkpoint window", slices.Collect(wo.Records()), slices.Collect(wm.Records()))
	}
}

// Stream must resume packet-exactly from any cursor offset.
func TestStreamCursorResume(t *testing.T) {
	cfg := testCfg(14)
	path := buildStore(t, cfg, 0, Options{SegmentPackets: 300})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	full := streamRecords(t, r, 0)
	n := int64(len(full))
	for _, start := range []int64{0, 1, 255, 256, 257, 299, 300, 301, n / 2, n - 1, n, n + 10} {
		want := []trace.Record{}
		if start < n {
			want = full[start:]
		}
		mustEqualRecords(t, "resume", streamRecords(t, r, start), want)
	}
}

// The ReadAt fallback must serve the identical stream as the mmap path.
func TestReadAtFallbackMatchesMmap(t *testing.T) {
	cfg := testCfg(15)
	path := buildStore(t, cfg, 4, Options{SegmentPackets: 700})
	rm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	rf, err := open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if rf.zeroCopy {
		t.Fatal("ReadAt reader claims zero-copy")
	}
	mustEqualRecords(t, "fallback stream", streamRecords(t, rf, 0), streamRecords(t, rm, 0))
	if rm.Summary() != rf.Summary() {
		t.Fatalf("summaries differ: %+v vs %+v", rm.Summary(), rf.Summary())
	}
	n := rm.Packets()
	mustEqualRecords(t, "fallback resume", streamRecords(t, rf, n/2), streamRecords(t, rm, n/2))
	if rf.HasFooter() != rm.HasFooter() {
		t.Fatal("footer presence differs between backings")
	}
}

// An empty store (no packets) round-trips.
func TestEmptyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.fstore")
	w, err := Create(path, Meta{Duration: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(trace.Summary{Duration: 5}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.Packets() != 0 || len(r.segs) != 0 {
		t.Fatalf("empty store reports %d packets in %d segments", r.Packets(), len(r.segs))
	}
	if got := streamRecords(t, r, 0); len(got) != 0 {
		t.Fatalf("empty store streamed %d records", len(got))
	}
	if got := streamRecords(t, r, 3); len(got) != 0 {
		t.Fatalf("empty store streamed %d records from offset 3", len(got))
	}
}
