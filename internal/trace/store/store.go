// Package store persists trace.Block columns in an append-only segment file,
// so multi-hour traces are generated once and measured out-of-core instead of
// being re-synthesised for every pass. The file is a sequence of CRC-framed
// records (the exact framing of internal/snapshot, so every torn-tail and
// bit-flip guarantee carries over):
//
//	magic | meta | segment* | trailer | tail pointer
//
// Each segment frame holds up to SegmentPackets packets as four contiguous
// little-endian column runs — Times (float64 bits), Srcs, Dsts (packed header
// words), Sizes (uint16) — padded so the 8-byte columns land on an 8-byte
// file offset. A Reader therefore serves blocks by pointing straight into an
// mmap of the file (zero-copy; a plain os.ReadAt decode path is the fallback
// for hosts without a usable mmap), and resuming at a packet offset is a
// binary search of the segment directory — no re-synthesis at all. Writing
// and reading both hold one segment at a time, whatever the trace length.
//
// Files written before the format dropped its checkpoint footer carry one
// more frame (type 3) between the last segment and the trailer, and a
// trailer that points at it. Readers skip that frame and ignore the
// pointer, so those files open unchanged.
//
// Damage is reported in the snapshot error classes (snapshot.ErrTorn,
// snapshot.ErrCorrupt), so callers tell a torn final segment (valid prefix
// still readable) from flipped bytes.
//
// Determinism contract: stored times are exactly the generated rebased times
// (t − warmup), so Reader.Stream replays the generator's packet stream bit
// for bit, whatever segment size or worker count the store was written at.
// That, plus the packet-exact Stream cursor, is what lets the measurement
// suite shard one trace set across processes and merge byte-identical output.
package store

import (
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// fileMagic carries the store format version in its trailing byte; bump it
// on any incompatible layout change.
const fileMagic = "FLOWSTO\x01"

// Frame types of the store file. The snapshot framing reserves 0xFFFFFFFF
// for its commit frame; store files never use it.
const (
	frameMeta    uint32 = 1
	frameSegment uint32 = 2
	// frameFooter is retired: it held the checkpoint footer of older files,
	// which readers now skip. Never reuse the type for another frame.
	frameFooter  uint32 = 3
	frameTrailer uint32 = 4
)

// tailLen is the fixed-length pointer block ending a complete store file:
// the trailer frame's file offset followed by tailMagic, 16 bytes total.
// Readers locate the trailer from here; when the tail is damaged they fall
// back to a forward frame scan.
const tailLen = 16

// tailMagic terminates a complete store file.
const tailMagic uint64 = 0x464c4f5753544f52 // "FLOWSTOR"

// segPrefixLen is the fixed prefix of a segment payload: count, tFirst,
// tLast, pad — four 64-bit words before the padding and the column runs.
const segPrefixLen = 32

// DefaultSegmentPackets is the default segment granularity: ~1.7 MB of
// columns per segment — large enough that per-segment framing amortises to
// noise, small enough that a reader's working set (and a writer's resident
// buffer) stays a sliver of a multi-GB trace.
const DefaultSegmentPackets = 1 << 16

// bytesPerPacket is the column cost of one packet on disk and in the
// writer's accumulation buffer: 8 (Times) + 8 (Srcs) + 8 (Dsts) + 2 (Sizes).
const bytesPerPacket = 26

// Meta identifies what a store holds: the generation parameters a reader
// needs to interpret (and, with the caller's full trace.Config, re-derive)
// the trace. Samplers cannot be serialised, so a store does not embed the
// whole Config; the (Seed, CheckpointEvery) pair plus the caller-supplied
// Config is the determinism contract.
type Meta struct {
	// Seed is the generator seed the trace was produced with (0 for
	// non-synthetic sources, e.g. pcap conversions).
	Seed int64
	// Duration is the trace length in seconds (rebased times lie in
	// [0, Duration)). It is 0 for pcap imports: the meta frame is written
	// before the last packet is known, so the trailer's Summary.Duration is
	// the authoritative length there.
	Duration float64
	// Warmup is the generator warm-up that was cut before rebasing.
	Warmup float64
	// Lambda is the flow arrival rate (informational; sizes replay grids).
	Lambda float64
	// CheckpointEvery is the checkpoint spacing in seconds that
	// Reader.Checkpoints builds its index at (0 = none recorded); nothing
	// else reads it.
	CheckpointEvery float64
	// SegmentPackets is the segment granularity the file was written at.
	SegmentPackets int
}

func (m Meta) encode() []byte {
	var e snapshot.Enc
	e.I64(m.Seed)
	e.F64(m.Duration)
	e.F64(m.Warmup)
	e.F64(m.Lambda)
	e.F64(m.CheckpointEvery)
	e.U64(uint64(m.SegmentPackets))
	return e.Bytes()
}

func decodeMeta(p []byte) (Meta, error) {
	d := snapshot.NewDec(p)
	m := Meta{
		Seed:            d.I64(),
		Duration:        d.F64(),
		Warmup:          d.F64(),
		Lambda:          d.F64(),
		CheckpointEvery: d.F64(),
		SegmentPackets:  int(d.U64()),
	}
	if err := d.Err(); err != nil {
		return Meta{}, fmt.Errorf("store: meta frame: %w", err)
	}
	return m, nil
}

// segMeta is one directory entry of the trailer: where a segment frame
// starts, how many packets it holds, how many packets precede it, and its
// rebased time bounds (first and last packet).
type segMeta struct {
	off    int64
	count  int64
	cum    int64
	tFirst float64
	tLast  float64
}

// encodeTrailer assembles the trailer payload: totals, the stored summary,
// the retired footer frame offset (always 0) and the segment directory.
func encodeTrailer(sum trace.Summary, segs []segMeta) []byte {
	var e snapshot.Enc
	e.I64(sum.Flows)
	e.I64(sum.Packets)
	e.I64(sum.Bytes)
	e.F64(sum.Duration)
	e.F64(sum.AvgRateBps)
	e.F64(sum.FlowRate)
	e.I64(sum.OnePktFlows)
	e.I64(0) // retired footer offset
	e.U64(uint64(len(segs)))
	for _, s := range segs {
		e.I64(s.off)
		e.I64(s.count)
		e.F64(s.tFirst)
		e.F64(s.tLast)
	}
	return e.Bytes()
}

// decodeTrailer parses a trailer payload. The footer offset older writers
// recorded is read past and ignored.
func decodeTrailer(p []byte) (sum trace.Summary, segs []segMeta, err error) {
	d := snapshot.NewDec(p)
	sum.Flows = d.I64()
	sum.Packets = d.I64()
	sum.Bytes = d.I64()
	sum.Duration = d.F64()
	sum.AvgRateBps = d.F64()
	sum.FlowRate = d.F64()
	sum.OnePktFlows = d.I64()
	d.I64() // retired footer offset
	n := d.U64()
	if d.Err() == nil && n > uint64(d.Rest()/32) {
		return sum, nil, fmt.Errorf("store: trailer directory of %d segments exceeds payload: %w", n, snapshot.ErrCorrupt)
	}
	var cum int64
	for i := uint64(0); i < n; i++ {
		s := segMeta{off: d.I64(), count: d.I64(), tFirst: d.F64(), tLast: d.F64(), cum: cum}
		cum += s.count
		segs = append(segs, s)
	}
	if err := d.Err(); err != nil {
		return sum, nil, fmt.Errorf("store: trailer frame: %w", err)
	}
	return sum, segs, nil
}

// segPad returns the zero-padding inserted between a segment payload's fixed
// prefix and its Times column so the 8-byte column runs start on an 8-byte
// file offset (frameStart is the segment frame's file offset). Padding is
// settled at write time, so readers never recompute alignment — they read it
// from the payload prefix.
func segPad(frameStart int64) int64 {
	colStart := frameStart + snapshot.FrameHeaderSize + segPrefixLen
	return (8 - colStart%8) % 8
}
