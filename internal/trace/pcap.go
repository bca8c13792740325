package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/netpkt"
	"repro/internal/pcap"
)

// traceEpoch anchors relative trace times when writing pcap files. The value
// itself is irrelevant to any statistic; it makes synthetic captures look
// like they were taken on the paper's collection date (Nov 8th, 2001).
var traceEpoch = time.Date(2001, 11, 8, 0, 0, 0, 0, time.UTC)

// StreamPcap decodes a raw-IP or Ethernet pcap capture into blocks, the
// shape StreamParallelBlocksCtx produces: fn borrows each block (valid only
// during the call), ctx is checked once per block, and one pooled block is
// the whole resident state. Times are seconds since the first decoded
// packet, and a zero IPv4 total length falls back to the pcap original
// length. Undecodable records (and Ethernet frames not carrying IPv4) are
// skipped; a capture where every record fails, a packet time below its
// predecessor's, and any other link type are errors. The Summary carries
// Packets, Bytes and Duration (the last packet's time).
func StreamPcap(ctx context.Context, r io.Reader, fn func(*Block) error) (Summary, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return Summary{}, fmt.Errorf("trace: %w", err)
	}
	linkLen := 0 // bytes before the IP header; an Ethernet II header is 14
	switch lt := pr.LinkType(); lt {
	case pcap.LinkTypeRaw:
	case pcap.LinkTypeEthernet:
		linkLen = 14
	default:
		return Summary{}, fmt.Errorf("trace: unsupported pcap link type %d (want raw IP %d or Ethernet %d)",
			lt, pcap.LinkTypeRaw, pcap.LinkTypeEthernet)
	}
	var (
		sum     Summary
		skipped int
		origin  time.Time
	)
	blk := GetBlock()
	defer PutBlock(blk)
	for i := 0; ; i++ {
		p, err := pr.ReadPacket()
		if err != nil && err != io.EOF {
			return sum, fmt.Errorf("trace: %w", err)
		}
		// A full block goes out once the next record is in hand; the last
		// partial one at the end of the capture.
		if n := blk.Len(); n == BlockSize || (err == io.EOF && n > 0) {
			if err := ctx.Err(); err != nil {
				return sum, fmt.Errorf("trace: pcap stream cancelled: %w", err)
			}
			if err := fn(blk); err != nil {
				return sum, err
			}
			blk.Reset()
		}
		if err == io.EOF {
			break
		}
		var hdr netpkt.Header
		data := p.Data
		if linkLen > 0 && (len(data) < linkLen || binary.BigEndian.Uint16(data[12:14]) != 0x0800) {
			skipped++ // not an IPv4 EtherType
			continue
		}
		if err := hdr.Unmarshal(data[linkLen:]); err != nil {
			skipped++
			continue
		}
		if n := p.OrigLen - linkLen; hdr.TotalLen == 0 && n > 0 && n <= 0xffff {
			// Some captures zero the total-length field after slicing.
			hdr.TotalLen = uint16(n)
		}
		if sum.Packets == 0 {
			origin = p.Timestamp
		}
		t := p.Timestamp.Sub(origin).Seconds()
		if t < sum.Duration {
			return sum, fmt.Errorf("trace: pcap packet %d out of order: %g s after %g s", i, t, sum.Duration)
		}
		sum.Duration = t
		sum.Packets++
		sum.Bytes += int64(hdr.TotalLen)
		src, dst := hdr.Packed()
		blk.Append(t, hdr.TotalLen, src, dst)
	}
	if sum.Packets == 0 && skipped > 0 {
		return sum, fmt.Errorf("trace: all %d pcap records failed to decode", skipped)
	}
	return sum, nil
}

// PcapWriter writes blocks as a nanosecond-resolution raw-IP pcap stream:
// each packet's 44-byte header, with OrigLen carrying the true wire length
// like the paper's capture infrastructure. AddBlock has the shape of
// store.Writer.AddBlock, so either writer can be StreamParallelBlocksCtx's fn.
type PcapWriter struct {
	pw  *pcap.Writer
	buf [netpkt.HeaderLen]byte
}

// NewPcapWriter writes the pcap file header to w and returns a PcapWriter.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	pw, err := pcap.NewWriter(w, pcap.WriterOptions{
		SnapLen:    netpkt.HeaderLen,
		LinkType:   pcap.LinkTypeRaw,
		Nanosecond: true,
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &PcapWriter{pw: pw}, nil
}

// AddBlock appends blk's packets; nothing of the borrowed block is kept.
func (w *PcapWriter) AddBlock(blk *Block) error {
	for i, t := range blk.Times {
		hdr := netpkt.HeaderFromPacked(blk.Srcs[i], blk.Dsts[i], blk.Sizes[i])
		hdr.Marshal(w.buf[:]) // cannot fail: the buffer is HeaderLen bytes
		err := w.pw.WritePacket(pcap.Packet{
			Timestamp: traceEpoch.Add(time.Duration(t * float64(time.Second))),
			Data:      w.buf[:],
			OrigLen:   int(hdr.TotalLen),
		})
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// Flush writes any buffered packets to the underlying writer.
func (w *PcapWriter) Flush() error { return w.pw.Flush() }
