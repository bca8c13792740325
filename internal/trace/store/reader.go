package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// backing abstracts how file bytes reach the reader: a subslice of an mmap
// (zero-copy) or an os.ReadAt into caller-owned scratch. Offsets are
// absolute file offsets; callers keep n within the file size.
type backing interface {
	size() int64
	// view returns bytes [off, off+n). The mmap backing returns a mapping
	// subslice and ignores scratch; the ReadAt backing fills *scratch
	// (growing it as needed), so a view is only valid until the next view
	// through the same scratch.
	view(off, n int64, scratch *[]byte) ([]byte, error)
	close() error
}

// fileBacking is the portable fallback: every view is a pread into scratch.
type fileBacking struct {
	f  *os.File
	sz int64
}

func (b *fileBacking) size() int64 { return b.sz }

func (b *fileBacking) view(off, n int64, scratch *[]byte) ([]byte, error) {
	if scratch == nil {
		scratch = new([]byte)
	}
	if int64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := b.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: read [%d,+%d): %w", off, n, err)
	}
	return buf, nil
}

func (b *fileBacking) close() error { return b.f.Close() }

// Reader serves one store file: metadata, the stored summary and
// packet-exact block streaming. A Reader is immutable after Open and safe
// for concurrent use; every Stream drives its own iterator state. Blocks
// handed out by a zero-copy reader alias the read-only mapping — consumers
// must copy, never mutate (which every block consumer in this codebase
// already does: blocks are borrowed by contract).
type Reader struct {
	b        backing
	meta     Meta
	sum      trace.Summary
	segs     []segMeta
	packets  int64
	zeroCopy bool // mmap backing on a little-endian host
}

// Open maps (or, where mmap is unavailable, opens for pread) a store file.
// On a fully valid file it returns (reader, nil). When the tail or trailer
// is damaged it falls back to a forward frame scan and — if a meta frame
// and zero or more whole segments validate — returns a reader over
// that valid prefix alongside an error wrapping snapshot.ErrTorn
// (truncation) or snapshot.ErrCorrupt (flipped bytes), mirroring
// snapshot.Decode's torn-tail contract. Only an unreadable or unrecognisable
// file returns a nil reader.
func Open(path string) (*Reader, error) { return open(path, false) }

func open(path string, forceReadAt bool) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	sz := st.Size()
	var b backing
	if !forceReadAt {
		b, _ = mapFile(f, sz) // nil on any mmap failure: fall through
	}
	if b == nil {
		b = &fileBacking{f: f, sz: sz}
	} else {
		// The mapping outlives the descriptor.
		f.Close()
	}
	r := &Reader{b: b, zeroCopy: !forceReadAt && hostLittleEndian}
	if _, ok := b.(*fileBacking); ok {
		r.zeroCopy = false
	}
	var scratch []byte
	magic, err := b.view(0, min64(sz, int64(len(fileMagic))), &scratch)
	if err != nil || string(magic) != fileMagic {
		b.close()
		return nil, fmt.Errorf("store: %s: bad file magic: %w", path, snapshot.ErrCorrupt)
	}
	fastErr := r.openFast()
	if fastErr == nil {
		return r, nil
	}
	scanErr := r.scan()
	if scanErr != nil {
		b.close()
		return nil, fmt.Errorf("store: %s unreadable: %w (tail: %v)", path, scanErr, fastErr)
	}
	return r, fmt.Errorf("store: %s recovered as valid prefix (%d segments, %d packets): %w",
		path, len(r.segs), r.packets, fastErr)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// frameAt reads and validates the frame at off. The returned payload aliases
// scratch on a ReadAt backing (valid until scratch's next view) and the
// mapping on an mmap backing (valid for the reader's lifetime).
func (r *Reader) frameAt(off int64, scratch *[]byte) (typ uint32, payload []byte, next int64, err error) {
	sz := r.b.size()
	if off < int64(len(fileMagic)) || off >= sz {
		return 0, nil, off, fmt.Errorf("store: frame offset %d outside file of %d bytes: %w", off, sz, snapshot.ErrTorn)
	}
	avail := sz - off
	take := int64(snapshot.FrameHeaderSize)
	if avail >= take {
		hdr, verr := r.b.view(off, take, scratch)
		if verr != nil {
			return 0, nil, off, verr
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[16:]))
		want := take + plen + snapshot.FrameTrailerSize
		// A garbage length field is caught by the header CRC inside
		// ReadFrameAt; just never read past the file or the section bound.
		if plen <= snapshot.MaxSectionBytes && want <= avail {
			take = want
		}
	} else {
		take = avail
	}
	buf, verr := r.b.view(off, take, scratch)
	if verr != nil {
		return 0, nil, off, verr
	}
	typ, _, payload, n, err := snapshot.ReadFrameAt(buf, 0)
	if err != nil {
		return 0, nil, off, fmt.Errorf("store: %w", err)
	}
	return typ, payload, off + int64(n), nil
}

// openFast is the O(1)-ish happy path: locate the trailer through the tail
// pointer, load the directory and the meta frame. Segment payloads are not
// touched — their CRCs validate on each read — and neither is the retired
// footer frame an older trailer may point at.
func (r *Reader) openFast() error {
	sz := r.b.size()
	if sz < int64(len(fileMagic))+tailLen {
		return fmt.Errorf("store: file of %d bytes has no tail pointer: %w", sz, snapshot.ErrTorn)
	}
	var scratch []byte
	tail, err := r.b.view(sz-tailLen, tailLen, &scratch)
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(tail[8:]) != tailMagic {
		return fmt.Errorf("store: bad tail magic: %w", snapshot.ErrTorn)
	}
	trailerOff := int64(binary.LittleEndian.Uint64(tail[0:]))
	typ, payload, next, err := r.frameAt(trailerOff, &scratch)
	if err != nil {
		return err
	}
	if typ != frameTrailer {
		return fmt.Errorf("store: tail points at frame type %d, want trailer: %w", typ, snapshot.ErrCorrupt)
	}
	if next != sz-tailLen {
		return fmt.Errorf("store: trailer frame ends at %d, tail starts at %d: %w", next, sz-tailLen, snapshot.ErrCorrupt)
	}
	sum, segs, err := decodeTrailer(payload)
	if err != nil {
		return err
	}
	prevEnd := int64(len(fileMagic))
	for i, s := range segs {
		if s.count < 1 || s.off < prevEnd || s.off >= trailerOff {
			return fmt.Errorf("store: segment %d directory entry (off %d, count %d) invalid: %w", i, s.off, s.count, snapshot.ErrCorrupt)
		}
		prevEnd = s.off
	}
	// Meta is the first frame. Its payload must be copied out of scratch
	// before any further view.
	mtyp, mpayload, _, err := r.frameAt(int64(len(fileMagic)), &scratch)
	if err != nil {
		return err
	}
	if mtyp != frameMeta {
		return fmt.Errorf("store: first frame type %d, want meta: %w", mtyp, snapshot.ErrCorrupt)
	}
	meta, err := decodeMeta(mpayload)
	if err != nil {
		return err
	}
	r.meta, r.sum, r.segs = meta, sum, segs
	if n := len(segs); n > 0 {
		r.packets = segs[n-1].cum + segs[n-1].count
	}
	return nil
}

// scan recovers a store whose tail or trailer is damaged by walking frames
// forward from the meta frame, keeping every segment that validates and
// skipping the retired footer frame. If the trailer frame itself is intact
// the stored summary is adopted; otherwise the reader serves the segment
// prefix with a zero summary.
func (r *Reader) scan() error {
	var scratch []byte
	off := int64(len(fileMagic))
	first := true
	var segs []segMeta
	var cum int64
	var sum trace.Summary
	haveTrailer := false
	for off < r.b.size() {
		typ, payload, next, err := r.frameAt(off, &scratch)
		if err != nil {
			break // the valid prefix ends here
		}
		if first {
			if typ != frameMeta {
				return fmt.Errorf("store: first frame type %d, want meta: %w", typ, snapshot.ErrCorrupt)
			}
			meta, merr := decodeMeta(payload)
			if merr != nil {
				return merr
			}
			r.meta = meta
			first = false
			off = next
			continue
		}
		switch typ {
		case frameSegment:
			count, _, _, pad, perr := parseSegPrefix(payload)
			if perr != nil || int64(len(payload)) != segPrefixLen+pad+count*bytesPerPacket {
				return fmt.Errorf("store: segment frame at %d malformed: %w", off, snapshot.ErrCorrupt)
			}
			n := int(count)
			tf := math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
			tl := math.Float64frombits(binary.LittleEndian.Uint64(payload[16:]))
			segs = append(segs, segMeta{off: off, count: int64(n), cum: cum, tFirst: tf, tLast: tl})
			cum += int64(n)
		case frameFooter:
			// Retired: an older file's checkpoint footer. Skip it.
		case frameTrailer:
			if s, dsegs, terr := decodeTrailer(payload); terr == nil && len(dsegs) == len(segs) {
				sum = s
				haveTrailer = true
			}
		}
		off = next
		if haveTrailer {
			break
		}
	}
	if first {
		return fmt.Errorf("store: no meta frame: %w", snapshot.ErrTorn)
	}
	r.segs, r.packets, r.sum = segs, cum, sum
	return nil
}

// parseSegPrefix decodes a segment payload's fixed prefix.
func parseSegPrefix(payload []byte) (count int64, tFirstBits, tLastBits uint64, pad int64, err error) {
	if len(payload) < segPrefixLen {
		return 0, 0, 0, 0, fmt.Errorf("store: segment payload of %d bytes has no prefix: %w", len(payload), snapshot.ErrCorrupt)
	}
	count = int64(binary.LittleEndian.Uint64(payload[0:]))
	tFirstBits = binary.LittleEndian.Uint64(payload[8:])
	tLastBits = binary.LittleEndian.Uint64(payload[16:])
	pad = int64(binary.LittleEndian.Uint64(payload[24:]))
	if count < 1 || pad < 0 || pad > 7 || count > (int64(len(payload))-segPrefixLen-pad)/bytesPerPacket {
		return 0, 0, 0, 0, fmt.Errorf("store: segment prefix (count %d, pad %d) invalid: %w", count, pad, snapshot.ErrCorrupt)
	}
	return count, tFirstBits, tLastBits, pad, nil
}

// Close releases the mapping or file handle. Blocks and records borrowed
// from a zero-copy reader die with it.
func (r *Reader) Close() error { return r.b.close() }

// Meta returns the stored generation parameters.
func (r *Reader) Meta() Meta { return r.meta }

// Summary returns the trace summary stored in the trailer (zero when the
// reader recovered a torn file whose trailer was lost).
func (r *Reader) Summary() trace.Summary { return r.sum }

// Packets returns the total packets across all readable segments.
func (r *Reader) Packets() int64 { return r.packets }

// LastTime returns the rebased time of the final stored packet (0 for an
// empty store) — the directory's tLast, no segment read needed.
func (r *Reader) LastTime() float64 {
	if len(r.segs) == 0 {
		return 0
	}
	return r.segs[len(r.segs)-1].tLast
}

// Checkpoints builds the resident trace.Checkpoints index of the stored
// trace at the spacing its meta records, by re-running phase 1 over cfg. cfg
// must be the exact configuration the trace was generated with; the store
// cannot carry the samplers, so it cross-checks what it can. It is kept for
// perfbench's reference-window probe and goes with it.
func (r *Reader) Checkpoints(cfg trace.Config) (*trace.Checkpoints, error) {
	if !(r.meta.CheckpointEvery > 0) {
		return nil, fmt.Errorf("store: meta records no checkpoint spacing")
	}
	if cfg.Seed != r.meta.Seed || cfg.Duration != r.meta.Duration || cfg.Warmup != r.meta.Warmup {
		return nil, fmt.Errorf("store: config (seed %d, duration %g, warmup %g) does not match store (seed %d, duration %g, warmup %g)",
			cfg.Seed, cfg.Duration, cfg.Warmup, r.meta.Seed, r.meta.Duration, r.meta.Warmup)
	}
	return trace.NewCheckpoints(cfg, r.meta.CheckpointEvery)
}

// segIter is the per-iteration state of one Stream pass: the frame
// scratch (ReadAt backing) and the decode buffers (non-zero-copy paths). One
// segment's columns are resident at a time — the O(segment) memory bound.
type segIter struct {
	scratch []byte
	times   []float64
	srcs    []uint64
	dsts    []uint64
	sizes   []uint16
	blk     trace.Block
}

// loadSeg loads segment i's columns into it: zero-copy views of the mapping
// when the backing and host allow, decode-copies into it's buffers
// otherwise. The frame CRC is validated on every load.
func (r *Reader) loadSeg(i int, it *segIter) (n int, err error) {
	sm := r.segs[i]
	typ, payload, _, err := r.frameAt(sm.off, &it.scratch)
	if err != nil {
		return 0, err
	}
	if typ != frameSegment {
		return 0, fmt.Errorf("store: directory points at frame type %d at offset %d, want segment: %w", typ, sm.off, snapshot.ErrCorrupt)
	}
	count, _, _, pad, err := parseSegPrefix(payload)
	if err != nil {
		return 0, err
	}
	if count != sm.count || int64(len(payload)) != segPrefixLen+pad+count*bytesPerPacket {
		return 0, fmt.Errorf("store: segment %d holds %d packets in %d payload bytes, directory says %d: %w",
			i, count, len(payload), sm.count, snapshot.ErrCorrupt)
	}
	n = int(count)
	cols := payload[segPrefixLen+pad:]
	colOff := sm.off + snapshot.FrameHeaderSize + segPrefixLen + pad
	if r.zeroCopy && colOff%8 == 0 {
		it.times = castF64(cols[: 8*n : 8*n])
		it.srcs = castU64(cols[8*n : 16*n : 16*n])
		it.dsts = castU64(cols[16*n : 24*n : 24*n])
		it.sizes = castU16(cols[24*n:])
		return n, nil
	}
	if cap(it.times) < n {
		it.times = make([]float64, n)
		it.srcs = make([]uint64, n)
		it.dsts = make([]uint64, n)
		it.sizes = make([]uint16, n)
	}
	it.times = it.times[:n]
	it.srcs = it.srcs[:n]
	it.dsts = it.dsts[:n]
	it.sizes = it.sizes[:n]
	for k := 0; k < n; k++ {
		it.times[k] = math.Float64frombits(binary.LittleEndian.Uint64(cols[8*k:]))
	}
	for k := 0; k < n; k++ {
		it.srcs[k] = binary.LittleEndian.Uint64(cols[8*n+8*k:])
	}
	for k := 0; k < n; k++ {
		it.dsts[k] = binary.LittleEndian.Uint64(cols[16*n+8*k:])
	}
	for k := 0; k < n; k++ {
		it.sizes[k] = binary.LittleEndian.Uint16(cols[24*n+2*k:])
	}
	return n, nil
}

// Stream replays the stored packet stream from packet offset start (0 =
// whole trace) in BlockSize chunks. Blocks are borrowed: valid only during
// fn, read-only (a zero-copy block aliases the PROT_READ mapping), never to
// be recycled into the trace block pool by the consumer. The packet offset
// is the exact resume cursor service sources persist.
func (r *Reader) Stream(ctx context.Context, start int64, fn func(blk *trace.Block) error) error {
	if start < 0 {
		return fmt.Errorf("store: negative stream offset %d", start)
	}
	i := sort.Search(len(r.segs), func(x int) bool { return r.segs[x].cum+r.segs[x].count > start })
	var it segIter
	for ; i < len(r.segs); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := r.loadSeg(i, &it)
		if err != nil {
			return err
		}
		lo := 0
		if skip := start - r.segs[i].cum; skip > 0 {
			lo = int(skip)
		}
		for lo < n {
			hi := lo + trace.BlockSize
			if hi > n {
				hi = n
			}
			it.blk = trace.Block{
				Times: it.times[lo:hi],
				Sizes: it.sizes[lo:hi],
				Srcs:  it.srcs[lo:hi],
				Dsts:  it.dsts[lo:hi],
			}
			if err := fn(&it.blk); err != nil {
				return err
			}
			lo = hi
		}
	}
	return nil
}
