// Package snapshot persists the resident state of a long-running pipeline
// as crash-safe checkpoints. A checkpoint is a sequence of typed sections
// written through a versioned, CRC-guarded framing into one file; files are
// written atomically (temp file + fsync + rename + directory fsync) and a
// Store keeps the last few generations, so a reader always recovers the
// newest checkpoint that was *completely* written.
//
// The framing is defensive in both directions: every frame carries a header
// CRC (so a flipped length field cannot send the reader off into the weeds)
// and a payload CRC (so flipped state bytes are detected, never silently
// restored), and a checkpoint is only complete when its final commit frame
// validates. A torn tail — the file ends mid-frame after a crash — is
// truncated to the last valid frame; a checkpoint whose commit frame is
// missing or whose frames fail their CRCs is rejected with a tagged error
// and the Store falls back to the previous generation. Corruption therefore
// degrades to "resume from an older checkpoint", never to a panic or to
// silently wrong state.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Tagged error classes. Every decode failure wraps exactly one of these, so
// callers can distinguish "no checkpoint yet" (fresh start) from "the
// checkpoint on disk is damaged" (fall back, warn an operator).
var (
	// ErrNoCheckpoint: the store holds no readable complete checkpoint.
	ErrNoCheckpoint = errors.New("snapshot: no checkpoint")
	// ErrCorrupt: framing or CRC validation failed (bit flip, bad magic,
	// version mismatch, non-monotone sequence).
	ErrCorrupt = errors.New("snapshot: corrupt checkpoint")
	// ErrTorn: the file ends mid-frame — the classic crash-during-append
	// tear. The valid prefix is still returned alongside the error.
	ErrTorn = errors.New("snapshot: torn checkpoint tail")
	// ErrIncomplete: all frames validate but the commit frame is missing,
	// so the checkpoint never finished writing and must not be restored.
	ErrIncomplete = errors.New("snapshot: incomplete checkpoint (no commit frame)")
)

// File and frame constants. The file magic carries the format version in
// its trailing byte; bump it on any incompatible layout change.
const (
	fileMagic  = "FLOWSNP\x01"
	frameMagic = 0x5EC7F7A3
	// commitType is the reserved section type of the trailing commit frame.
	commitType = 0xFFFFFFFF
	// headerSize: magic(4) + type(4) + seq(8) + len(4) + headerCRC(4).
	headerSize = 24
	// FrameHeaderSize is the byte length of the frame header WriteFrame
	// emits before the payload — exported so a frame-file writer (the trace
	// store) can compute a payload's absolute file offset, e.g. to pad
	// columns onto an mmap-friendly alignment.
	FrameHeaderSize = headerSize
	// FrameTrailerSize is the byte length of the payload CRC WriteFrame
	// appends after the payload.
	FrameTrailerSize = 4
	// MaxSectionBytes bounds one section so a corrupt length field cannot
	// drive a multi-gigabyte allocation before its CRC is even checked.
	MaxSectionBytes = 1 << 30
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Section is one typed unit of checkpoint state — a flow table, a rate
// series, a refit window. Types are owner-defined; commitType is reserved.
type Section struct {
	Type uint32
	Data []byte
}

// WriteFrame appends one CRC-guarded frame to w: the 24-byte header (magic,
// type, sequence, length, header CRC), the payload, and the payload CRC.
// This is the framing primitive shared by checkpoint encoding and the trace
// store's segment files; ReadFrameAt is its inverse.
func WriteFrame(w io.Writer, typ uint32, seq uint64, payload []byte) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], typ)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(crc[:])
	return err
}

// Encode writes a complete checkpoint — every section in order, then the
// commit frame — through w. seq is the checkpoint's generation number,
// embedded in every frame so frames from different generations can never be
// stitched together.
func Encode(w io.Writer, seq uint64, sections []Section) error {
	if _, err := io.WriteString(w, fileMagic); err != nil {
		return err
	}
	for _, s := range sections {
		if s.Type == commitType {
			return fmt.Errorf("snapshot: section type %#x is reserved for the commit frame", commitType)
		}
		if len(s.Data) > MaxSectionBytes {
			return fmt.Errorf("snapshot: section of %d bytes exceeds the %d byte bound", len(s.Data), MaxSectionBytes)
		}
		if err := WriteFrame(w, s.Type, seq, s.Data); err != nil {
			return err
		}
	}
	return WriteFrame(w, commitType, seq, nil)
}

// ReadFrameAt validates and reads the frame starting at data[off], returning
// its type, sequence, payload and the offset of the next frame. The payload
// is a subslice of data — zero-copy, so a caller over an mmap'd file reads
// column runs without materialising them — and is only valid while data is.
// Truncation mid-frame wraps ErrTorn; any CRC/magic/bound failure wraps
// ErrCorrupt.
func ReadFrameAt(data []byte, off int) (typ uint32, seq uint64, payload []byte, next int, err error) {
	if len(data)-off < headerSize {
		return 0, 0, nil, off, fmt.Errorf("file ends inside a frame header at offset %d: %w", off, ErrTorn)
	}
	hdr := data[off : off+headerSize]
	if binary.LittleEndian.Uint32(hdr[20:]) != crc32.Checksum(hdr[:20], crcTable) {
		// A torn header tail and a flipped header bit are indistinguishable
		// without the CRC; the header CRC failing on a full-length header
		// means the bytes themselves are wrong.
		return 0, 0, nil, off, fmt.Errorf("frame header CRC mismatch at offset %d: %w", off, ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return 0, 0, nil, off, fmt.Errorf("bad frame magic at offset %d: %w", off, ErrCorrupt)
	}
	typ = binary.LittleEndian.Uint32(hdr[4:])
	seq = binary.LittleEndian.Uint64(hdr[8:])
	plen := int(binary.LittleEndian.Uint32(hdr[16:]))
	if plen > MaxSectionBytes {
		return 0, 0, nil, off, fmt.Errorf("frame payload of %d bytes exceeds bound: %w", plen, ErrCorrupt)
	}
	body := off + headerSize
	if len(data)-body < plen+FrameTrailerSize {
		return 0, 0, nil, off, fmt.Errorf("file ends inside a frame payload at offset %d: %w", off, ErrTorn)
	}
	payload = data[body : body+plen]
	if binary.LittleEndian.Uint32(data[body+plen:]) != crc32.Checksum(payload, crcTable) {
		return 0, 0, nil, off, fmt.Errorf("frame payload CRC mismatch at offset %d: %w", off, ErrCorrupt)
	}
	return typ, seq, payload, body + plen + FrameTrailerSize, nil
}

// Decode reads a checkpoint written by Encode, validating every frame. On
// success it returns the sections and the generation number. On a torn tail
// it returns the valid prefix alongside an error wrapping ErrTorn; any
// other validation failure wraps ErrCorrupt (or ErrIncomplete when the only
// defect is the missing commit frame). The returned sections are always
// internally consistent — a caller may restore from a torn checkpoint's
// prefix only if its own commit discipline allows partial state, which the
// Store's Load (requiring the commit frame) deliberately does not.
func Decode(data []byte) (sections []Section, seq uint64, err error) {
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return nil, 0, fmt.Errorf("bad file magic: %w", ErrCorrupt)
	}
	off := len(fileMagic)
	committed := false
	first := true
	for off < len(data) {
		if committed {
			return sections, seq, fmt.Errorf("trailing bytes after commit frame: %w", ErrCorrupt)
		}
		typ, fseq, payload, next, err := ReadFrameAt(data, off)
		if err != nil {
			return sections, seq, err
		}
		if first {
			seq = fseq
			first = false
		} else if fseq != seq {
			return sections, seq, fmt.Errorf("frame sequence %d != checkpoint sequence %d: %w", fseq, seq, ErrCorrupt)
		}
		off = next
		if typ == commitType {
			if len(payload) != 0 {
				return sections, seq, fmt.Errorf("commit frame carries %d payload bytes: %w", len(payload), ErrCorrupt)
			}
			committed = true
			continue
		}
		// Copy out of the input buffer: sections outlive the caller's data.
		sections = append(sections, Section{Type: typ, Data: append([]byte(nil), payload...)})
	}
	if !committed {
		return sections, seq, fmt.Errorf("%w", ErrIncomplete)
	}
	return sections, seq, nil
}

// Store manages checkpoint generations in one directory: ckpt-<seq>.snap
// files written atomically, the last Keep generations retained. One Store
// owns its directory — concurrent writers are a deployment error.
type Store struct {
	dir string
	// keep is how many complete generations survive a Save (minimum 2, so
	// a tear discovered only at restore time still has a fallback).
	keep int
	seq  uint64
}

const snapPrefix, snapSuffix = "ckpt-", ".snap"

// OpenStore opens (creating if needed) a checkpoint directory. The next
// Save continues the generation sequence after the newest file present.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s := &Store{dir: dir, keep: 2}
	seqs, err := s.generations()
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		s.seq = seqs[len(seqs)-1]
	}
	return s, nil
}

// generations lists the sequence numbers of present checkpoint files,
// ascending. Unparseable names are ignored (they are not ours).
func (s *Store) generations() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		n, err := strconv.ParseUint(name[len(snapPrefix):len(name)-len(snapSuffix)], 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (s *Store) path(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
}

// Save writes one complete checkpoint as the next generation: encode to a
// temp file, fsync it, rename into place, fsync the directory, then prune
// generations beyond Keep. The rename is the commit point — a crash at any
// earlier instant leaves the previous generation untouched, and a crash
// mid-encode leaves only a *.tmp file the next Save overwrites.
func (s *Store) Save(sections []Section) (seq uint64, err error) {
	seq = s.seq + 1
	final := s.path(seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := Encode(f, seq, sections); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("snapshot: encoding generation %d: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("snapshot: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("snapshot: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("snapshot: commit rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return 0, fmt.Errorf("snapshot: fsync dir %s: %w", s.dir, err)
	}
	s.seq = seq
	s.prune()
	return seq, nil
}

// prune removes generations older than the newest keep. Best-effort: a
// failed remove costs disk, not correctness.
func (s *Store) prune() {
	seqs, err := s.generations()
	if err != nil {
		return
	}
	for len(seqs) > s.keep {
		os.Remove(s.path(seqs[0]))
		seqs = seqs[1:]
	}
}

// Load returns the newest complete, valid checkpoint. Generations that are
// torn, corrupt or incomplete are skipped (newest first); if none validate
// the error wraps ErrNoCheckpoint, with the newest generation's defect
// attached so an operator sees *why* the state was lost.
func (s *Store) Load() (sections []Section, seq uint64, err error) {
	seqs, err := s.generations()
	if err != nil {
		return nil, 0, err
	}
	var firstDefect error
	for i := len(seqs) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(s.path(seqs[i]))
		if rerr != nil {
			if firstDefect == nil {
				firstDefect = rerr
			}
			continue
		}
		secs, fseq, derr := Decode(data)
		if derr == nil {
			return secs, fseq, nil
		}
		if firstDefect == nil {
			firstDefect = fmt.Errorf("generation %d: %w", seqs[i], derr)
		}
	}
	if firstDefect != nil {
		return nil, 0, fmt.Errorf("%w (newest defect: %v)", ErrNoCheckpoint, firstDefect)
	}
	return nil, 0, ErrNoCheckpoint
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Enc is an append-only little-endian encoder for section payloads: the
// tiny, dependency-free serialisation the service state uses. Methods never
// fail; the buffer grows as needed.
type Enc struct{ buf []byte }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// U64 appends one unsigned 64-bit value.
func (e *Enc) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// I64 appends one signed 64-bit value.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends one float64 bit pattern (exact round-trip, NaN included).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends one boolean byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64s appends a length-prefixed float64 slice.
func (e *Enc) F64s(vs []float64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// Dec decodes payloads written by Enc. The first failed read latches an
// error; every later read returns zero values, so decode sequences read
// straight through and check Err once at the end.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

// Err returns the first decode failure (short buffer), or nil.
func (d *Dec) Err() error { return d.err }

// Rest returns the number of unread bytes.
func (d *Dec) Rest() int { return len(d.buf) - d.off }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		d.err = fmt.Errorf("payload truncated at offset %d (want %d more bytes): %w", d.off, n, ErrCorrupt)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads one unsigned 64-bit value.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads one signed 64-bit value.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads one float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one boolean byte.
func (d *Dec) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// F64s reads a length-prefixed float64 slice (nil when empty).
func (d *Dec) F64s() []float64 {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Rest()/8) {
		d.err = fmt.Errorf("slice length %d exceeds remaining payload: %w", n, ErrCorrupt)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}
