package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// frameInfo describes one frame of a store file, recovered by walking the
// framing directly — the test's independent view of the layout.
type frameInfo struct {
	typ  uint32
	off  int64 // frame start
	end  int64 // offset just past the payload CRC
	plen int
}

func walkFrames(t testing.TB, raw []byte) []frameInfo {
	t.Helper()
	var frames []frameInfo
	off := len(fileMagic)
	for off < len(raw)-tailLen {
		typ, _, payload, next, err := snapshot.ReadFrameAt(raw, off)
		if err != nil {
			t.Fatalf("reference walk failed at %d: %v", off, err)
		}
		frames = append(frames, frameInfo{typ: typ, off: int64(off), end: int64(next), plen: len(payload)})
		off = next
	}
	if int64(off) != int64(len(raw)-tailLen) {
		t.Fatalf("reference walk ended at %d, tail starts at %d", off, len(raw)-tailLen)
	}
	return frames
}

// corruptFixture builds one store and returns its bytes, frames and the
// serial reference records.
func corruptFixture(t *testing.T) (raw []byte, frames []frameInfo, ref []trace.Record) {
	t.Helper()
	cfg := testCfg(21)
	path := buildStore(t, cfg, 4, Options{SegmentPackets: 400})
	var err error
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ = synthRecords(t, cfg)
	return raw, walkFrames(t, raw), ref
}

// writeTemp materialises a (possibly damaged) byte image as a store file.
func writeTemp(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dmg.fstore")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// prefixPackets counts the packets in the first n frames.
func prefixPackets(frames []frameInfo, n int) (segs int, packets int64) {
	for _, fr := range frames[:n] {
		if fr.typ == frameSegment {
			segs++
			packets += int64(fr.plen-segPrefixLen) / bytesPerPacket // pad <= 7 < bytesPerPacket, so integer division absorbs it
		}
	}
	return segs, packets
}

// Truncation at every frame boundary (and inside every frame) must yield a
// reader over exactly the frames before the cut, with an error wrapping
// ErrTorn — the snapshot corruption-matrix contract carried to the store.
func TestTruncationAtEveryFrameBoundary(t *testing.T) {
	raw, frames, ref := corruptFixture(t)
	cuts := []struct {
		name string
		at   func(frameInfo) int64
	}{
		{"at-boundary", func(f frameInfo) int64 { return f.off }},
		{"inside-header", func(f frameInfo) int64 { return f.off + 7 }},
		{"inside-payload", func(f frameInfo) int64 { return f.off + snapshot.FrameHeaderSize + int64(f.plen)/2 }},
	}
	for _, cut := range cuts {
		for i, fr := range frames {
			at := cut.at(fr)
			r, err := Open(writeTemp(t, raw[:at]))
			if i == 0 {
				// The meta frame itself is gone or incomplete: nothing usable.
				if err == nil {
					t.Fatalf("%s frame 0: Open accepted a store with no meta frame", cut.name)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%s frame %d: Open returned no error for a truncated store", cut.name, i)
			}
			if !errors.Is(err, snapshot.ErrTorn) {
				t.Fatalf("%s frame %d: error %v does not wrap ErrTorn", cut.name, i, err)
			}
			if r == nil {
				t.Fatalf("%s frame %d: no valid-prefix reader", cut.name, i)
			}
			whole := i
			if cut.name == "inside-payload" && at >= fr.end {
				whole = i + 1 // the midpoint of a tiny payload can land past the frame
			}
			wantSegs, wantPackets := prefixPackets(frames, whole)
			if len(r.segs) != wantSegs || r.Packets() != wantPackets {
				t.Fatalf("%s frame %d: prefix has %d segments / %d packets, want %d / %d",
					cut.name, i, len(r.segs), r.Packets(), wantSegs, wantPackets)
			}
			mustEqualRecords(t, "torn prefix", streamRecords(t, r, 0), ref[:wantPackets])
			r.Close()
		}
	}
}

// A clean cut just before the tail pointer loses only the tail: the scan
// recovers segments and trailer summary.
func TestTruncationOfTailOnly(t *testing.T) {
	raw, frames, ref := corruptFixture(t)
	r, err := Open(writeTemp(t, raw[:len(raw)-tailLen]))
	if err == nil || !errors.Is(err, snapshot.ErrTorn) {
		t.Fatalf("tailless store: err = %v, want ErrTorn", err)
	}
	if r == nil {
		t.Fatal("tailless store: no reader")
	}
	defer r.Close()
	wantSegs, wantPackets := prefixPackets(frames, len(frames))
	if len(r.segs) != wantSegs || r.Packets() != wantPackets {
		t.Fatalf("recovered %d segments / %d packets, want %d / %d", len(r.segs), r.Packets(), wantSegs, wantPackets)
	}
	if r.Summary() == (trace.Summary{}) {
		t.Fatal("trailer summary lost though its frame is intact")
	}
	mustEqualRecords(t, "tailless stream", streamRecords(t, r, 0), ref)
}

// A bit flip inside a segment's column run is invisible to Open (segment
// CRCs validate lazily) but must surface as ErrCorrupt the moment the
// segment is read, leaving every other segment readable.
func TestColumnRunBitFlip(t *testing.T) {
	raw, frames, ref := corruptFixture(t)
	var segIdx []int
	for i, fr := range frames {
		if fr.typ == frameSegment {
			segIdx = append(segIdx, i)
		}
	}
	if len(segIdx) < 3 {
		t.Fatalf("fixture has %d segments, want >= 3", len(segIdx))
	}
	victim := segIdx[len(segIdx)/2]
	dmg := append([]byte(nil), raw...)
	// +40 bytes into the payload: past the 32-byte prefix and the <= 7 pad
	// bytes, i.e. inside the Times column.
	dmg[frames[victim].off+snapshot.FrameHeaderSize+40] ^= 0x10
	r, err := Open(writeTemp(t, dmg))
	if err != nil {
		t.Fatalf("Open: %v (segment CRCs are lazy; a column flip must not fail Open)", err)
	}
	defer r.Close()
	_, wantPackets := prefixPackets(frames, victim)
	var got []trace.Record
	serr := r.Stream(context.Background(), 0, func(blk *trace.Block) error {
		got = appendRecords(got, blk)
		return nil
	})
	if serr == nil || !errors.Is(serr, snapshot.ErrCorrupt) {
		t.Fatalf("Stream over flipped column: err = %v, want ErrCorrupt", serr)
	}
	mustEqualRecords(t, "pre-flip prefix", got, ref[:wantPackets])

	// Resuming past the flip skips the bad segment; resuming inside it
	// still fails.
	_, after := prefixPackets(frames, victim+1)
	mustEqualRecords(t, "post-flip suffix", streamRecords(t, r, after), ref[after:])
	if serr := r.Stream(context.Background(), after-1, func(*trace.Block) error { return nil }); !errors.Is(serr, snapshot.ErrCorrupt) {
		t.Fatalf("Stream from inside the flipped segment: err = %v, want ErrCorrupt", serr)
	}
}

// flipFooter returns a copy of a store written with a checkpoint footer,
// with one bit flipped in the middle of the footer frame's payload.
func flipFooter(t testing.TB, raw []byte) []byte {
	t.Helper()
	for _, fr := range walkFrames(t, raw) {
		if fr.typ == frameFooter {
			dmg := bytes.Clone(raw)
			dmg[fr.off+snapshot.FrameHeaderSize+int64(fr.plen)/2] ^= 0x01
			return dmg
		}
	}
	t.Fatal("store has no footer frame")
	return nil
}

// Readers never look at the footer frame of a store written with one, so a
// bit flip inside it changes nothing: Open returns no error on either
// backing and the packets and summary are a fresh synthesis's.
func TestFooterBitFlip(t *testing.T) {
	raw, err := os.ReadFile(footerFixture)
	if err != nil {
		t.Fatal(err)
	}
	ref, refSum := synthRecords(t, footerFixtureCfg())
	path := writeTemp(t, flipFooter(t, raw))
	for _, readAt := range []bool{false, true} {
		r, err := open(path, readAt)
		if err != nil {
			t.Fatalf("readAt=%v: flipped footer: Open: %v", readAt, err)
		}
		if r.Summary() != refSum {
			t.Fatalf("readAt=%v: summary %+v, want %+v", readAt, r.Summary(), refSum)
		}
		mustEqualRecords(t, "segments after footer flip", streamRecords(t, r, 0), ref)
		r.Close()
	}
}

// With the tail pointer gone, the forward scan steps over an intact footer
// frame to the trailer, recovering every segment and the stored summary.
func TestScanSkipsFooterFrame(t *testing.T) {
	raw, err := os.ReadFile(footerFixture)
	if err != nil {
		t.Fatal(err)
	}
	ref, refSum := synthRecords(t, footerFixtureCfg())
	r, err := Open(writeTemp(t, raw[:len(raw)-tailLen]))
	if !errors.Is(err, snapshot.ErrTorn) {
		t.Fatalf("tailless store: err = %v, want ErrTorn", err)
	}
	if r == nil {
		t.Fatal("tailless store: no reader")
	}
	defer r.Close()
	if r.Summary() != refSum {
		t.Fatalf("scan recovered summary %+v, want %+v", r.Summary(), refSum)
	}
	mustEqualRecords(t, "scanned stream", streamRecords(t, r, 0), ref)
}

// A bit flip in the trailer loses the stored summary but nothing else.
func TestTrailerBitFlip(t *testing.T) {
	raw, frames, ref := corruptFixture(t)
	var trailer frameInfo
	for _, fr := range frames {
		if fr.typ == frameTrailer {
			trailer = fr
		}
	}
	dmg := append([]byte(nil), raw...)
	dmg[trailer.off+snapshot.FrameHeaderSize+4] ^= 0x80
	r, err := Open(writeTemp(t, dmg))
	if err == nil || !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("flipped trailer: err = %v, want ErrCorrupt", err)
	}
	if r == nil {
		t.Fatal("flipped trailer: no reader")
	}
	defer r.Close()
	if r.Summary() != (trace.Summary{}) {
		t.Fatal("summary survived a corrupt trailer")
	}
	mustEqualRecords(t, "segments after trailer flip", streamRecords(t, r, 0), ref)
}

// A flipped tail pointer sends Open through the forward scan, which
// recovers everything including the trailer summary.
func TestTailPointerBitFlip(t *testing.T) {
	raw, _, ref := corruptFixture(t)
	dmg := append([]byte(nil), raw...)
	dmg[len(dmg)-1] ^= 0xFF // tail magic
	r, err := Open(writeTemp(t, dmg))
	if err == nil {
		t.Fatal("flipped tail accepted silently")
	}
	if r == nil {
		t.Fatal("flipped tail: no reader")
	}
	defer r.Close()
	if r.Summary() == (trace.Summary{}) {
		t.Fatal("scan failed to recover the trailer summary")
	}
	mustEqualRecords(t, "after tail flip", streamRecords(t, r, 0), ref)
}
