// Package netpkt encodes and decodes the packet headers that the paper's
// monitoring infrastructure records: every packet on the tapped OC-12 links
// is timestamped and its first 44 bytes are kept, enough for the IPv4 header
// plus the TCP/UDP ports. This package is a stdlib-only, allocation-free
// equivalent of the slice of gopacket the measurement pipeline needs:
// IPv4/TCP/UDP header marshalling, the 5-tuple flow key, and destination
// /24-prefix keys (the paper's two flow definitions, §III).
package netpkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol numbers (IANA).
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// HeaderLen is the number of bytes recorded per packet, matching the paper's
// 44-byte capture: a 20-byte IPv4 header followed by the first 24 bytes of
// the transport header (enough for TCP's fixed header, padded for UDP).
const HeaderLen = 44

// ipv4HeaderLen is the length of an option-less IPv4 header.
const ipv4HeaderLen = 20

// Errors returned by the decoder.
var (
	ErrTruncated   = errors.New("netpkt: truncated header")
	ErrNotIPv4     = errors.New("netpkt: not an IPv4 packet")
	ErrBadIHL      = errors.New("netpkt: bad IPv4 header length")
	ErrUnsupported = errors.New("netpkt: unsupported transport protocol")
)

// IPv4Addr is an IPv4 address in wire order. A fixed array keeps flow keys
// comparable and hashable without allocation (the same trade-off gopacket
// makes for Endpoint).
type IPv4Addr [4]byte

// String formats the address in dotted-quad notation.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer.
func (a IPv4Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// AddrFromUint32 builds an address from a big-endian integer.
func AddrFromUint32(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Header is the decoded view of a 44-byte packet record.
type Header struct {
	SrcIP    IPv4Addr
	DstIP    IPv4Addr
	Protocol uint8
	SrcPort  uint16
	DstPort  uint16
	// TotalLen is the IPv4 total length field: header plus payload bytes.
	// Flow sizes in the paper are measured in bytes on the wire, so this is
	// the per-packet contribution to a flow's size S.
	TotalLen uint16
	// TTL is kept because anomaly detection (e.g. DoS fingerprinting) can
	// use its distribution.
	TTL uint8
}

// Packed-column layout: the batch-columnar measurement path carries each
// packet's header as two 64-bit words instead of a Header struct, so flow
// keys are mask-and-shift derivations over plain integer columns. The
// packing is lossless — together with the wire length it round-trips the
// whole Header — and places the fields so every flow definition is a cheap
// mask: the 5-tuple is (src, dst &^ PackedTTLMask), a destination /n prefix
// is high bits of dst >> PackedAddrShift.
const (
	// PackedAddrShift positions the IPv4 address in a packed word.
	PackedAddrShift = 32
	// PackedPortShift positions the transport port in a packed word.
	PackedPortShift = 16
	// PackedTTLMask masks the TTL byte out of a packed dst word (the TTL
	// rides in the column for lossless round-trips but is not flow-key
	// material).
	PackedTTLMask = 0xFF
)

// Packed returns the header's two packed key columns:
// src = srcIP<<32 | srcPort<<16 | protocol, dst = dstIP<<32 | dstPort<<16 | TTL.
func (h Header) Packed() (src, dst uint64) {
	src = uint64(h.SrcIP.Uint32())<<PackedAddrShift |
		uint64(h.SrcPort)<<PackedPortShift |
		uint64(h.Protocol)
	dst = uint64(h.DstIP.Uint32())<<PackedAddrShift |
		uint64(h.DstPort)<<PackedPortShift |
		uint64(h.TTL)
	return src, dst
}

// HeaderFromPacked reconstructs the Header a Packed call encoded, given the
// wire length carried separately in a block's size column.
func HeaderFromPacked(src, dst uint64, totalLen uint16) Header {
	return Header{
		SrcIP:    AddrFromUint32(uint32(src >> PackedAddrShift)),
		DstIP:    AddrFromUint32(uint32(dst >> PackedAddrShift)),
		Protocol: uint8(src),
		SrcPort:  uint16(src >> PackedPortShift),
		DstPort:  uint16(dst >> PackedPortShift),
		TotalLen: totalLen,
		TTL:      uint8(dst),
	}
}

// Marshal encodes the header into buf, which must be at least HeaderLen
// bytes, and returns the number of bytes written (always HeaderLen).
// The layout is a valid option-less IPv4 header followed by the transport
// ports at their on-wire offsets; remaining transport bytes are zero.
func (h *Header) Marshal(buf []byte) (int, error) {
	if len(buf) < HeaderLen {
		return 0, fmt.Errorf("netpkt: marshal buffer too small: %d < %d", len(buf), HeaderLen)
	}
	for i := 0; i < HeaderLen; i++ {
		buf[i] = 0
	}
	buf[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(buf[2:4], h.TotalLen)
	buf[8] = h.TTL
	buf[9] = h.Protocol
	copy(buf[12:16], h.SrcIP[:])
	copy(buf[16:20], h.DstIP[:])
	binary.BigEndian.PutUint16(buf[20:22], h.SrcPort)
	binary.BigEndian.PutUint16(buf[22:24], h.DstPort)
	// IPv4 header checksum over the first 20 bytes.
	binary.BigEndian.PutUint16(buf[10:12], ipChecksum(buf[:ipv4HeaderLen]))
	return HeaderLen, nil
}

// Unmarshal decodes a packet record. buf must hold at least the IPv4 header
// and the transport ports; full 44-byte records always qualify. The IPv4
// checksum is not verified (the capture hardware already did), but version
// and IHL are.
func (h *Header) Unmarshal(buf []byte) error {
	if len(buf) < ipv4HeaderLen {
		return ErrTruncated
	}
	if buf[0]>>4 != 4 {
		return ErrNotIPv4
	}
	ihl := int(buf[0]&0x0f) * 4
	if ihl < ipv4HeaderLen {
		return ErrBadIHL
	}
	h.TotalLen = binary.BigEndian.Uint16(buf[2:4])
	h.TTL = buf[8]
	h.Protocol = buf[9]
	copy(h.SrcIP[:], buf[12:16])
	copy(h.DstIP[:], buf[16:20])
	h.SrcPort, h.DstPort = 0, 0
	switch h.Protocol {
	case ProtoTCP, ProtoUDP:
		if len(buf) < ihl+4 {
			return ErrTruncated
		}
		h.SrcPort = binary.BigEndian.Uint16(buf[ihl : ihl+2])
		h.DstPort = binary.BigEndian.Uint16(buf[ihl+2 : ihl+4])
	default:
		// Other protocols (ICMP, GRE, ...) are still valid flows at the
		// prefix level; ports stay zero so the 5-tuple degenerates to the
		// (src, dst, proto) triple, matching what NetFlow does.
	}
	return nil
}

// ipChecksum computes the standard Internet checksum of b (whose checksum
// field must be zero).
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
