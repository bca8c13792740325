package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/netpkt"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// The checkpoint footer is the on-disk replacement for the in-memory
// Checkpoints index (~100 B resident per flow): the same start-sorted
// program list and per-boundary active-flow sets, delta/varint-encoded so a
// replay decodes only the programs it plays, straight off the file mapping.
//
// Layout of the footer frame payload:
//
//	every f64 | warmup f64 | duration f64 | nProgs u64 | nb u64
//	group dir:  nb × { progOff u64, firstIdx u64 }    (offsets into progBlob)
//	active dir: nb × { activeOff u64 }                (offsets into activeBlob)
//	progBlobLen u64 | progBlob | activeBlobLen u64 | activeBlob
//
// progBlob holds the programs partitioned into nb groups by start boundary
// (group j ⇔ Start ∈ [b_j, b_{j+1}), warm-up arrivals in group 0), each
// program as: zigzag Δ of the admission index (vs the previous program in
// the group), raw float64 bits of Start/Duration/InvBp1, uvarint SizeB and
// PktBytes, raw packed header words. activeBlob holds, per boundary, the
// uvarint count and ascending-gap-encoded global program indices of the
// flows straddling it — identical sets, in identical order, to the lists
// trace.NewCheckpoints builds resident.

// footerHdrLen is the fixed footer header: every, warmup, duration, nProgs, nb.
const footerHdrLen = 40

// groupOf returns the boundary group of a start time x: the unique g in
// [0, nb) with b(g) <= x < b(g+1) (clamped at the ends), where
// b(j) = warmup + j·every — the one canonical boundary expression, shared
// with trace.Checkpoints. The encoder partitions programs with it and the
// reader seeks with it, so both sides agree on every ulp.
func groupOf(warmup, every float64, nb int, x float64) int {
	g := int((x - warmup) / every)
	if g < 0 {
		g = 0
	}
	if g > nb-1 {
		g = nb - 1
	}
	for g > 0 && warmup+float64(g)*every > x {
		g--
	}
	for g < nb-1 && warmup+float64(g+1)*every <= x {
		g++
	}
	return g
}

// encodeFooter builds the footer payload from the (Start, Index)-sorted
// program list. meta must carry the trace's Warmup/Duration and a positive
// CheckpointEvery.
func encodeFooter(meta Meta, progs []trace.FlowProgram) ([]byte, error) {
	every := meta.CheckpointEvery
	if !(every > 0) {
		return nil, fmt.Errorf("store: checkpoint spacing must be > 0, got %g", every)
	}
	nb := int(meta.Duration/every) + 1
	boundary := func(j int) float64 { return meta.Warmup + float64(j)*every }

	// Partition the sorted programs into boundary groups and delta-encode
	// each group into the program blob.
	groupOff := make([]uint64, nb)
	firstIdx := make([]uint64, nb)
	var progBlob []byte
	g := -1
	var prevIdx int64
	for i := range progs {
		p := &progs[i]
		pg := groupOf(meta.Warmup, every, nb, p.Start)
		if pg < g {
			return nil, fmt.Errorf("store: program %d (start %g) out of group order", i, p.Start)
		}
		for g < pg {
			g++
			groupOff[g] = uint64(len(progBlob))
			firstIdx[g] = uint64(i)
			prevIdx = 0
		}
		src, dst := p.Hdr.Packed()
		progBlob = uvarint(progBlob, zigzag(int64(p.Index)-prevIdx))
		prevIdx = int64(p.Index)
		progBlob = binary.LittleEndian.AppendUint64(progBlob, math.Float64bits(p.Start))
		progBlob = binary.LittleEndian.AppendUint64(progBlob, math.Float64bits(p.Duration))
		progBlob = binary.LittleEndian.AppendUint64(progBlob, math.Float64bits(p.InvBp1))
		progBlob = uvarint(progBlob, uint64(p.SizeB))
		progBlob = uvarint(progBlob, uint64(p.PktBytes))
		progBlob = binary.LittleEndian.AppendUint64(progBlob, src)
		progBlob = binary.LittleEndian.AppendUint64(progBlob, dst)
	}
	for g < nb-1 { // trailing empty groups
		g++
		groupOff[g] = uint64(len(progBlob))
		firstIdx[g] = uint64(len(progs))
	}

	// Build the active lists exactly as trace.NewCheckpoints does, then
	// gap-encode each into the active blob.
	active := make([][]int64, nb)
	for i := range progs {
		p := &progs[i]
		jFirst := int((p.Start-meta.Warmup)/every) + 1
		if jFirst < 0 {
			jFirst = 0
		}
		for jFirst > 0 && boundary(jFirst-1) > p.Start {
			jFirst--
		}
		for jFirst < nb && boundary(jFirst) <= p.Start {
			jFirst++
		}
		for j := jFirst; j < nb && boundary(j) < p.End(); j++ {
			active[j] = append(active[j], int64(i))
		}
	}
	activeOff := make([]uint64, nb)
	var activeBlob []byte
	for j, lst := range active {
		activeOff[j] = uint64(len(activeBlob))
		activeBlob = uvarint(activeBlob, uint64(len(lst)))
		prev := int64(0)
		for k, idx := range lst {
			if k == 0 {
				activeBlob = uvarint(activeBlob, uint64(idx))
			} else {
				activeBlob = uvarint(activeBlob, uint64(idx-prev))
			}
			prev = idx
		}
	}

	var e snapshot.Enc
	e.F64(every)
	e.F64(meta.Warmup)
	e.F64(meta.Duration)
	e.U64(uint64(len(progs)))
	e.U64(uint64(nb))
	for j := 0; j < nb; j++ {
		e.U64(groupOff[j])
		e.U64(firstIdx[j])
	}
	for j := 0; j < nb; j++ {
		e.U64(activeOff[j])
	}
	e.U64(uint64(len(progBlob)))
	out := append(e.Bytes(), progBlob...)
	var e2 snapshot.Enc
	e2.U64(uint64(len(activeBlob)))
	out = append(out, e2.Bytes()...)
	out = append(out, activeBlob...)
	return out, nil
}

// footerIndex is the parsed footer: directory slices plus views of the two
// blobs (subslices of the frame payload — on an mmap backing, the index
// itself stays on disk). It implements trace.ProgramIndex. All methods are
// safe for concurrent use: decoding never mutates the index.
type footerIndex struct {
	every, warmup, duration float64
	nProgs                  int
	nb                      int
	groupOff                []int64 // len nb; offsets into progBlob
	firstIdx                []int64 // len nb+1; [nb] = nProgs sentinel
	activeOff               []int64 // len nb; offsets into activeBlob
	progBlob                []byte
	activeBlob              []byte
}

// parseFooter validates the whole footer structure up front — every program
// and active list decodes cleanly, offsets and counts are consistent — so
// the replay-time decoders can run without error paths. One O(flows) pass
// over compressed bytes, O(1) retained beyond the directory slices.
func parseFooter(payload []byte) (*footerIndex, error) {
	bad := func(format string, args ...any) (*footerIndex, error) {
		return nil, fmt.Errorf("store: footer: "+format+": %w", append(args, snapshot.ErrCorrupt)...)
	}
	if len(payload) < footerHdrLen {
		return bad("short header (%d bytes)", len(payload))
	}
	fi := &footerIndex{
		every:    math.Float64frombits(binary.LittleEndian.Uint64(payload[0:])),
		warmup:   math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])),
		duration: math.Float64frombits(binary.LittleEndian.Uint64(payload[16:])),
	}
	nProgs := binary.LittleEndian.Uint64(payload[24:])
	nb := binary.LittleEndian.Uint64(payload[32:])
	if !(fi.every > 0) || !(fi.duration > 0) || fi.warmup < 0 {
		return bad("invalid geometry (every %g, warmup %g, duration %g)", fi.every, fi.warmup, fi.duration)
	}
	// The count and the quotient are bounded before any arithmetic on them
	// (a footer frame can carry a recomputed CRC): a crafted count would
	// wrap the directory length negative, and converting a quotient past
	// the int range is undefined. The directory takes 16 bytes per group
	// entry and 8 per active entry, then two blob lengths.
	if avail := len(payload) - footerHdrLen - 16; avail < 0 || nb > uint64(avail)/24 {
		return bad("payload too short for %d directory entries", nb)
	}
	if q := fi.duration / fi.every; !(q < math.MaxInt64) || nb != uint64(int(q)+1) {
		return bad("boundary count %d does not match duration/every", nb)
	}
	if nProgs > uint64(len(payload)) { // each program costs well over 1 byte
		return bad("program count %d exceeds payload", nProgs)
	}
	fi.nProgs = int(nProgs)
	fi.nb = int(nb)
	off := footerHdrLen
	fi.groupOff = make([]int64, fi.nb)
	fi.firstIdx = make([]int64, fi.nb+1)
	for j := 0; j < fi.nb; j++ {
		fi.groupOff[j] = int64(binary.LittleEndian.Uint64(payload[off:]))
		fi.firstIdx[j] = int64(binary.LittleEndian.Uint64(payload[off+8:]))
		off += 16
	}
	fi.firstIdx[fi.nb] = int64(fi.nProgs)
	fi.activeOff = make([]int64, fi.nb)
	for j := 0; j < fi.nb; j++ {
		fi.activeOff[j] = int64(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	progLen := int64(binary.LittleEndian.Uint64(payload[off:]))
	off += 8
	if progLen < 0 || progLen > int64(len(payload)-off)-8 {
		return bad("program blob length %d exceeds payload", progLen)
	}
	fi.progBlob = payload[off : off+int(progLen)]
	off += int(progLen)
	activeLen := int64(binary.LittleEndian.Uint64(payload[off:]))
	off += 8
	if activeLen < 0 || activeLen != int64(len(payload)-off) {
		return bad("active blob length %d does not match payload", activeLen)
	}
	fi.activeBlob = payload[off:]

	// Directory consistency.
	for j := 0; j < fi.nb; j++ {
		if fi.groupOff[j] < 0 || fi.groupOff[j] > progLen {
			return bad("group %d program offset %d out of range", j, fi.groupOff[j])
		}
		if fi.firstIdx[j] < 0 || fi.firstIdx[j] > fi.firstIdx[j+1] {
			return bad("group %d first index %d out of order", j, fi.firstIdx[j])
		}
		if fi.activeOff[j] < 0 || fi.activeOff[j] > activeLen {
			return bad("boundary %d active offset %d out of range", j, fi.activeOff[j])
		}
		if j > 0 && fi.groupOff[j] < fi.groupOff[j-1] {
			return bad("group %d program offset %d out of order", j, fi.groupOff[j])
		}
	}

	// Decode every group once: offsets must land exactly on directory
	// entries, starts must be non-decreasing, and per-flow fields must be
	// playable (positive packet size, at least one byte).
	var cur progCursor
	cur.init(fi, 0)
	prevStart := math.Inf(-1)
	for j := 0; j < fi.nb; j++ {
		if cur.pos != fi.groupOff[j] {
			return bad("group %d starts at blob offset %d, directory says %d", j, cur.pos, fi.groupOff[j])
		}
		for i := fi.firstIdx[j]; i < fi.firstIdx[j+1]; i++ {
			p, ok := cur.next()
			if !ok {
				return bad("program %d of group %d does not decode", i, j)
			}
			if p.Start < prevStart {
				return bad("program %d start %g out of order", i, p.Start)
			}
			prevStart = p.Start
			if p.SizeB < 1 || p.PktBytes < 1 {
				return bad("program %d has unplayable size %d / packet bytes %d", i, p.SizeB, p.PktBytes)
			}
		}
	}
	if cur.pos != int64(len(fi.progBlob)) {
		return bad("program blob has %d trailing bytes", int64(len(fi.progBlob))-cur.pos)
	}
	// Decode every active list once: counts bounded, indices strictly
	// ascending and in range.
	var end int64
	for j := 0; j < fi.nb; j++ {
		d := vdec{b: fi.activeBlob, pos: fi.activeOff[j]}
		n := d.uvarint()
		if d.err != nil || n > uint64(fi.nProgs) {
			return bad("boundary %d active count does not decode", j)
		}
		prev := int64(-1)
		for k := uint64(0); k < n; k++ {
			g := d.uvarint()
			idx := int64(g)
			if k > 0 {
				if g == 0 {
					return bad("boundary %d active gap of zero", j)
				}
				idx = prev + int64(g)
			}
			if d.err != nil || idx < 0 || idx >= int64(fi.nProgs) || idx <= prev {
				return bad("boundary %d active index %d invalid", j, idx)
			}
			prev = idx
		}
		end = d.pos
	}
	if fi.nb > 0 && end != int64(len(fi.activeBlob)) {
		return bad("active blob has %d trailing bytes", int64(len(fi.activeBlob))-end)
	}
	return fi, nil
}

// vdec is a tiny latching varint/raw decoder over a blob.
type vdec struct {
	b   []byte
	pos int64
	err error
}

func (d *vdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("store: varint truncated at blob offset %d: %w", d.pos, snapshot.ErrCorrupt)
		return 0
	}
	d.pos += int64(n)
	return v
}

func (d *vdec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if int64(len(d.b))-d.pos < 8 {
		d.err = fmt.Errorf("store: blob truncated at offset %d: %w", d.pos, snapshot.ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

// progCursor decodes programs sequentially from the program blob, advancing
// across group boundaries (where the index delta chain resets). globalNext
// is the global index of the program next() would decode.
type progCursor struct {
	fi         *footerIndex
	g          int
	pos        int64
	rem        int64 // programs left in group g
	prevIdx    int64
	globalNext int64
}

// init positions the cursor at the start of group g.
func (c *progCursor) init(fi *footerIndex, g int) {
	c.fi = fi
	c.g = g
	c.pos = fi.groupOff[g]
	c.rem = fi.firstIdx[g+1] - fi.firstIdx[g]
	c.prevIdx = 0
	c.globalNext = fi.firstIdx[g]
}

// next decodes the next program, stepping into the following group when the
// current one is exhausted. ok is false at the end of the blob or on a
// decode failure (parseFooter guarantees the latter cannot happen on a
// validated index).
func (c *progCursor) next() (trace.FlowProgram, bool) {
	for c.rem == 0 {
		if c.g+1 >= c.fi.nb {
			return trace.FlowProgram{}, false
		}
		c.g++
		c.pos = c.fi.groupOff[c.g]
		c.rem = c.fi.firstIdx[c.g+1] - c.fi.firstIdx[c.g]
		c.prevIdx = 0
	}
	d := vdec{b: c.fi.progBlob, pos: c.pos}
	idx := c.prevIdx + unzigzag(d.uvarint())
	start := math.Float64frombits(d.u64())
	dur := math.Float64frombits(d.u64())
	invBp1 := math.Float64frombits(d.u64())
	sizeB := d.uvarint()
	pktBytes := d.uvarint()
	src := d.u64()
	dst := d.u64()
	if d.err != nil {
		return trace.FlowProgram{}, false
	}
	c.pos = d.pos
	c.rem--
	c.prevIdx = idx
	c.globalNext++
	return trace.FlowProgram{
		Index:    uint32(idx),
		Start:    start,
		Duration: dur,
		SizeB:    int(sizeB),
		InvBp1:   invBp1,
		PktBytes: int(pktBytes),
		Hdr:      netpkt.HeaderFromPacked(src, dst, 0),
	}, true
}

// Every implements trace.ProgramIndex.
func (fi *footerIndex) Every() float64 { return fi.every }

// Flows implements trace.ProgramIndex.
func (fi *footerIndex) Flows() int { return fi.nProgs }

// Boundaries implements trace.ProgramIndex.
func (fi *footerIndex) Boundaries() int { return fi.nb }

// ActiveAt implements trace.ProgramIndex: it decodes boundary j's gap-coded
// index list and materialises each referenced program. The indices ascend,
// so one forward cursor serves them all — total cost O(group bytes), not
// O(list × group).
func (fi *footerIndex) ActiveAt(j int, buf []trace.FlowProgram) []trace.FlowProgram {
	d := vdec{b: fi.activeBlob, pos: fi.activeOff[j]}
	n := d.uvarint()
	var cur progCursor
	started := false
	prev := int64(0)
	for k := uint64(0); k < n; k++ {
		g := d.uvarint()
		idx := int64(g)
		if k > 0 {
			idx = prev + int64(g)
		}
		prev = idx
		grp := sort.Search(fi.nb, func(x int) bool { return fi.firstIdx[x+1] > idx })
		if !started || idx < cur.globalNext {
			// First index, or (unreachable on a validated footer) a
			// non-ascending list: position the cursor at idx's group.
			cur.init(fi, grp)
			started = true
		} else if fi.firstIdx[grp] >= cur.globalNext && cur.g < grp {
			// Jump over whole intervening groups instead of decoding
			// through their programs one by one.
			cur.init(fi, grp)
		}
		for cur.globalNext < idx {
			cur.next() // skip within the group run up to idx
		}
		p, ok := cur.next()
		if !ok {
			break
		}
		buf = append(buf, p)
	}
	return buf
}

// ProgramsFrom implements trace.ProgramIndex: a pull iterator over programs
// with Start >= from, located by seeking to from's boundary group (later
// groups hold strictly later starts by construction) and skipping the
// group-prefix of earlier starts.
func (fi *footerIndex) ProgramsFrom(from float64) func() (trace.FlowProgram, bool) {
	var cur progCursor
	cur.init(fi, groupOf(fi.warmup, fi.every, fi.nb, from))
	skipping := true
	return func() (trace.FlowProgram, bool) {
		for {
			p, ok := cur.next()
			if !ok {
				return trace.FlowProgram{}, false
			}
			if skipping && p.Start < from {
				continue
			}
			skipping = false
			return p, true
		}
	}
}
