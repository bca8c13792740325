// Package pcap reads and writes the classic libpcap capture file format
// (the format tcpdump writes), supporting microsecond and nanosecond
// timestamp resolutions and both byte orders on read. The trace pipeline
// uses it so that (a) synthetic traces can be inspected with standard tools
// and (b) real captures can be fed to the flow-measurement pipeline in place
// of the paper's proprietary Sprint traces.
//
// Only the features the measurement pipeline needs are implemented: raw-IP
// and Ethernet link types, sequential read/write. There is no BPF filtering.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers for the classic pcap format.
const (
	magicMicro = 0xa1b2c3d4
	magicNano  = 0xa1b23c4d
)

// Link types (subset).
const (
	LinkTypeEthernet uint32 = 1
	LinkTypeRaw      uint32 = 101 // raw IP, what the 44-byte records use
)

// Errors.
var (
	ErrBadMagic   = errors.New("pcap: bad magic number")
	ErrSnapTooBig = errors.New("pcap: packet exceeds snap length")
)

// MaxSnapLen is the hard upper bound on the per-packet capture length the
// reader will allocate for, whatever the file header claims. Real captures
// top out at 65535 (the classic tcpdump default) or a couple of jumbo
// frames beyond; a multi-megabyte incl_len is a corrupt or hostile file,
// and without this bound a 16-byte packet header could demand a 4 GiB
// allocation.
const MaxSnapLen = 262144

const (
	fileHeaderLen   = 24
	packetHeaderLen = 16
)

// Packet is one captured record.
type Packet struct {
	// Timestamp of the capture.
	Timestamp time.Time
	// Data holds the captured bytes (up to the snap length).
	Data []byte
	// OrigLen is the original on-wire length, which may exceed len(Data)
	// when the capture is truncated (the paper keeps only 44 bytes of every
	// packet, so OrigLen carries the true packet size).
	OrigLen int
}

// Writer writes a pcap stream.
type Writer struct {
	w       *bufio.Writer
	snaplen uint32
	nano    bool
	hdr     [packetHeaderLen]byte
}

// WriterOptions configures NewWriter.
type WriterOptions struct {
	// SnapLen is the maximum stored bytes per packet (default 65535).
	SnapLen uint32
	// LinkType is the link-layer type (default LinkTypeRaw).
	LinkType uint32
	// Nanosecond selects the nanosecond-resolution magic.
	Nanosecond bool
}

// NewWriter writes a pcap file header to w and returns a Writer.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.SnapLen == 0 {
		opts.SnapLen = 65535
	}
	if opts.LinkType == 0 {
		opts.LinkType = LinkTypeRaw
	}
	var hdr [fileHeaderLen]byte
	magic := uint32(magicMicro)
	if opts.Nanosecond {
		magic = magicNano
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	// thiszone (8:12) and sigfigs (12:16) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], opts.SnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], opts.LinkType)
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing file header: %w", err)
	}
	return &Writer{w: bw, snaplen: opts.SnapLen, nano: opts.Nanosecond}, nil
}

// WritePacket appends one record.
func (w *Writer) WritePacket(p Packet) error {
	if uint32(len(p.Data)) > w.snaplen {
		return ErrSnapTooBig
	}
	sec := p.Timestamp.Unix()
	var sub int64
	if w.nano {
		sub = int64(p.Timestamp.Nanosecond())
	} else {
		sub = int64(p.Timestamp.Nanosecond() / 1000)
	}
	origLen := p.OrigLen
	if origLen < len(p.Data) {
		origLen = len(p.Data)
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(sub))
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(origLen))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing packet header: %w", err)
	}
	if _, err := w.w.Write(p.Data); err != nil {
		return fmt.Errorf("pcap: writing packet data: %w", err)
	}
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader reads a pcap stream.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nano     bool
	snaplen  uint32
	maxIncl  uint32 // effective per-packet allocation bound (snaplen ∧ MaxSnapLen)
	linkType uint32
	hdr      [packetHeaderLen]byte
}

// NewReader parses the file header of r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	rd := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == magicMicro:
		rd.order = binary.LittleEndian
	case magicLE == magicNano:
		rd.order, rd.nano = binary.LittleEndian, true
	case magicBE == magicMicro:
		rd.order = binary.BigEndian
	case magicBE == magicNano:
		rd.order, rd.nano = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	rd.snaplen = rd.order.Uint32(hdr[16:20])
	rd.linkType = rd.order.Uint32(hdr[20:24])
	// Effective allocation bound per packet: the declared snaplen, sanity
	// capped at MaxSnapLen; a zero snaplen (some writers) falls back to the
	// cap rather than "unlimited".
	rd.maxIncl = rd.snaplen
	if rd.maxIncl == 0 || rd.maxIncl > MaxSnapLen {
		rd.maxIncl = MaxSnapLen
	}
	return rd, nil
}

// LinkType returns the capture's link-layer type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// ReadPacket reads the next record. It returns io.EOF at a clean end of
// stream and io.ErrUnexpectedEOF if the stream ends mid-record.
func (r *Reader) ReadPacket() (Packet, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: reading packet header: %w", err)
	}
	sec := int64(r.order.Uint32(r.hdr[0:4]))
	sub := int64(r.order.Uint32(r.hdr[4:8]))
	incl := r.order.Uint32(r.hdr[8:12])
	orig := r.order.Uint32(r.hdr[12:16])
	// Bound the allocation before trusting incl_len: a corrupt or hostile
	// record must fail with an error, never with a giant allocation.
	if incl > r.maxIncl {
		return Packet{}, fmt.Errorf("pcap: record length %d exceeds capture bound %d (snaplen %d, cap %d)",
			incl, r.maxIncl, r.snaplen, uint32(MaxSnapLen))
	}
	data := make([]byte, incl)
	if _, err := io.ReadFull(r.r, data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Packet{}, fmt.Errorf("pcap: reading packet data: %w", err)
	}
	ns := sub
	if !r.nano {
		ns = sub * 1000
	}
	return Packet{
		Timestamp: time.Unix(sec, ns).UTC(),
		Data:      data,
		OrigLen:   int(orig),
	}, nil
}
