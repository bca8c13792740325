package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Options tunes a Writer.
type Options struct {
	// SegmentPackets is the packet count one segment frame holds (the last
	// segment may be short). Default DefaultSegmentPackets.
	SegmentPackets int
	// Workers is the synthesis worker count Generate shards packet work
	// across (<= 1 runs the serial stream, like StreamParallelBlocksCtx).
	// The written bytes are identical at any worker count.
	Workers int
}

// Writer appends one trace to a store file. The write path is append-only
// and buffered: AddBlock copies incoming block columns into one resident
// segment buffer and emits a CRC-framed segment each time it fills; Close
// appends the optional checkpoint footer, the trailer directory and the tail
// pointer, then fsyncs and renames the temp file into place — so a crash
// mid-write leaves a *.tmp, never a half-valid store at the final path.
type Writer struct {
	f      *os.File
	bw     *bufio.Writer
	path   string // final path; f writes path+".tmp"
	off    int64  // absolute file offset of the next byte
	seq    uint64 // frame ordinal
	meta   Meta
	err    error
	closed bool

	segCap  int
	times   []float64
	srcs    []uint64
	dsts    []uint64
	sizes   []uint16
	payload []byte

	segs    []segMeta
	packets int64
	progs   []trace.FlowProgram // start-sorted footer programs, nil = no footer
}

// Create opens a store writer for path. The file is written to path+".tmp"
// and renamed into place by Close. meta's CheckpointEvery only takes effect
// if SetPrograms supplies the program list before Close.
func Create(path string, meta Meta, opts Options) (*Writer, error) {
	segCap := opts.SegmentPackets
	if segCap == 0 {
		segCap = DefaultSegmentPackets
	}
	if segCap < 1 {
		return nil, fmt.Errorf("store: SegmentPackets must be >= 1, got %d", segCap)
	}
	meta.SegmentPackets = segCap
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &Writer{
		f: f, bw: bufio.NewWriterSize(f, 1<<16), path: path,
		meta:   meta,
		segCap: segCap,
		times:  make([]float64, 0, segCap),
		srcs:   make([]uint64, 0, segCap),
		dsts:   make([]uint64, 0, segCap),
		sizes:  make([]uint16, 0, segCap),
	}
	if _, err := w.bw.WriteString(fileMagic); err != nil {
		w.fail(err)
		return nil, w.err
	}
	w.off = int64(len(fileMagic))
	if err := w.writeFrame(frameMeta, meta.encode()); err != nil {
		return nil, err
	}
	return w, nil
}

// fail latches err, closes the file and removes the temp — every later call
// returns the latched error.
func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("store: writing %s: %w", w.path, err)
	}
	if w.f != nil {
		w.f.Close()
		os.Remove(w.path + ".tmp")
		w.f = nil
	}
}

// writeFrame appends one CRC frame and advances the offset.
func (w *Writer) writeFrame(typ uint32, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if err := snapshot.WriteFrame(w.bw, typ, w.seq, payload); err != nil {
		w.fail(err)
		return w.err
	}
	w.seq++
	w.off += snapshot.FrameHeaderSize + int64(len(payload)) + snapshot.FrameTrailerSize
	return nil
}

// AddBlock appends blk's packets to the store. Blocks are borrowed: the
// writer copies the columns into its segment buffer, so the caller recycles
// blk freely. Packet times must be the stream's rebased, non-decreasing
// times — exactly what StreamParallelBlocksCtx produces.
//
//repro:hotpath
func (w *Writer) AddBlock(blk *trace.Block) error {
	if w.err != nil {
		return w.err
	}
	n := blk.Len()
	for i := 0; i < n; {
		take := n - i
		if room := w.segCap - len(w.times); take > room {
			take = room
		}
		w.times = append(w.times, blk.Times[i:i+take]...)
		w.srcs = append(w.srcs, blk.Srcs[i:i+take]...)
		w.dsts = append(w.dsts, blk.Dsts[i:i+take]...)
		w.sizes = append(w.sizes, blk.Sizes[i:i+take]...)
		i += take
		if len(w.times) == w.segCap {
			if err := w.flushSegment(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushSegment serialises the buffered columns as one segment frame: the
// fixed prefix (count, tFirst, tLast, pad), alignment padding so Times lands
// on an 8-byte file offset, then the four column runs.
func (w *Writer) flushSegment() error {
	n := len(w.times)
	if n == 0 || w.err != nil {
		return w.err
	}
	pad := int(segPad(w.off))
	need := segPrefixLen + pad + n*bytesPerPacket
	if cap(w.payload) < need {
		w.payload = make([]byte, need)
	}
	p := w.payload[:need]
	binary.LittleEndian.PutUint64(p[0:], uint64(n))
	binary.LittleEndian.PutUint64(p[8:], math.Float64bits(w.times[0]))
	binary.LittleEndian.PutUint64(p[16:], math.Float64bits(w.times[n-1]))
	binary.LittleEndian.PutUint64(p[24:], uint64(pad))
	o := segPrefixLen
	for i := 0; i < pad; i++ {
		p[o+i] = 0
	}
	o += pad
	for i, t := range w.times {
		binary.LittleEndian.PutUint64(p[o+8*i:], math.Float64bits(t))
	}
	o += 8 * n
	for i, v := range w.srcs {
		binary.LittleEndian.PutUint64(p[o+8*i:], v)
	}
	o += 8 * n
	for i, v := range w.dsts {
		binary.LittleEndian.PutUint64(p[o+8*i:], v)
	}
	o += 8 * n
	for i, v := range w.sizes {
		binary.LittleEndian.PutUint16(p[o+2*i:], v)
	}
	sm := segMeta{off: w.off, count: int64(n), cum: w.packets, tFirst: w.times[0], tLast: w.times[n-1]}
	if err := w.writeFrame(frameSegment, p); err != nil {
		return err
	}
	w.segs = append(w.segs, sm)
	w.packets += int64(n)
	w.times = w.times[:0]
	w.srcs = w.srcs[:0]
	w.dsts = w.dsts[:0]
	w.sizes = w.sizes[:0]
	return nil
}

// SetPrograms supplies the trace's phase-1 flow programs for the checkpoint
// footer (required before Close for a footer to be written; ignored when
// meta.CheckpointEvery is 0). The writer sorts a copy by (Start, Index) —
// the checkpoint index order — so callers pass admission order as produced
// by trace.Programs.
func (w *Writer) SetPrograms(progs []trace.FlowProgram) {
	sorted := append([]trace.FlowProgram(nil), progs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Index < sorted[j].Index
	})
	w.progs = sorted
}

// Close flushes the final partial segment, writes the footer (when programs
// were supplied and CheckpointEvery > 0), the trailer and the tail pointer,
// fsyncs and renames the file into place. sum is stored verbatim in the
// trailer so readers reproduce Summary-derived output byte-identically.
func (w *Writer) Close(sum trace.Summary) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("store: writer for %s already closed", w.path)
	}
	if err := w.flushSegment(); err != nil {
		return err
	}
	var footerOff int64
	if w.progs != nil && w.meta.CheckpointEvery > 0 {
		footerOff = w.off
		fp, err := encodeFooter(w.meta, w.progs)
		if err != nil {
			w.fail(err)
			return w.err
		}
		if err := w.writeFrame(frameFooter, fp); err != nil {
			return err
		}
	}
	trailerOff := w.off
	if err := w.writeFrame(frameTrailer, encodeTrailer(sum, footerOff, w.segs)); err != nil {
		return err
	}
	var tail [tailLen]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(trailerOff))
	binary.LittleEndian.PutUint64(tail[8:], tailMagic)
	if _, err := w.bw.Write(tail[:]); err != nil {
		w.fail(err)
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.fail(err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.fail(err)
		return w.err
	}
	if err := w.f.Close(); err != nil {
		w.f = nil
		w.fail(err)
		return w.err
	}
	w.f = nil
	if err := os.Rename(w.path+".tmp", w.path); err != nil {
		w.fail(err)
		return w.err
	}
	if d, err := os.Open(filepath.Dir(w.path)); err == nil {
		d.Sync()
		d.Close()
	}
	w.closed = true
	return nil
}

// Abort discards the writer and its temp file. Safe after a failed Close.
func (w *Writer) Abort() {
	if w.closed {
		return
	}
	w.fail(fmt.Errorf("aborted"))
}

// Generate writes cfg's full trace to path: phase 1 runs once for the
// checkpoint footer (when checkpointEvery > 0), then the sharded synthesis
// streams every block through a Writer. The file bytes are identical at any
// opts.Workers and depend on segment size only through segment framing —
// replay from the store is bit-identical to serial generation regardless.
func Generate(ctx context.Context, path string, cfg trace.Config, checkpointEvery float64, opts Options) (trace.Summary, error) {
	meta := Meta{
		Seed:            cfg.Seed,
		Duration:        cfg.Duration,
		Warmup:          cfg.Warmup,
		Lambda:          cfg.Lambda,
		CheckpointEvery: checkpointEvery,
	}
	w, err := Create(path, meta, opts)
	if err != nil {
		return trace.Summary{}, err
	}
	defer w.Abort()
	if checkpointEvery > 0 {
		progs, _, err := trace.Programs(cfg)
		if err != nil {
			return trace.Summary{}, err
		}
		w.SetPrograms(progs)
	}
	sum, err := trace.StreamParallelBlocksCtx(ctx, cfg, opts.Workers, func(blk *trace.Block) error {
		return w.AddBlock(blk)
	})
	if err != nil {
		return trace.Summary{}, err
	}
	if err := w.Close(sum); err != nil {
		return trace.Summary{}, err
	}
	return sum, nil
}
