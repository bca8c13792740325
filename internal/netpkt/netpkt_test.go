package netpkt

import (
	"testing"
	"testing/quick"
)

func sampleHeader() Header {
	return Header{
		SrcIP:    IPv4Addr{10, 1, 2, 3},
		DstIP:    IPv4Addr{192, 168, 7, 9},
		Protocol: ProtoTCP,
		SrcPort:  443,
		DstPort:  51234,
		TotalLen: 1500,
		TTL:      61,
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	h := sampleHeader()
	buf := make([]byte, HeaderLen)
	n, err := h.Marshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != HeaderLen {
		t.Fatalf("marshal wrote %d bytes, want %d", n, HeaderLen)
	}
	var got Header
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

// Property: round trip holds for arbitrary field values.
func TestMarshalUnmarshalProperty(t *testing.T) {
	f := func(src, dst [4]byte, sp, dp, tl uint16, ttl uint8, udp bool) bool {
		h := Header{
			SrcIP: src, DstIP: dst,
			SrcPort: sp, DstPort: dp,
			TotalLen: tl, TTL: ttl,
			Protocol: ProtoTCP,
		}
		if udp {
			h.Protocol = ProtoUDP
		}
		buf := make([]byte, HeaderLen)
		if _, err := h.Marshal(buf); err != nil {
			return false
		}
		var got Header
		if err := got.Unmarshal(buf); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalChecksumValid(t *testing.T) {
	h := sampleHeader()
	buf := make([]byte, HeaderLen)
	if _, err := h.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	// The Internet checksum over a header that carries a valid checksum
	// folds to zero.
	if ipChecksum(buf[:ipv4HeaderLen]) != 0 {
		t.Fatal("marshalled header has invalid IPv4 checksum")
	}
	buf[15] ^= 0xff // corrupt a source-address byte
	if ipChecksum(buf[:ipv4HeaderLen]) == 0 {
		t.Fatal("corrupted header passed checksum validation")
	}
}

func TestMarshalBufferTooSmall(t *testing.T) {
	h := sampleHeader()
	if _, err := h.Marshal(make([]byte, 10)); err == nil {
		t.Fatal("short buffer should error")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var h Header
	if err := h.Unmarshal(make([]byte, 5)); err != ErrTruncated {
		t.Fatalf("short buf: err = %v, want ErrTruncated", err)
	}
	buf := make([]byte, HeaderLen)
	buf[0] = 0x65 // IPv6 version nibble
	if err := h.Unmarshal(buf); err != ErrNotIPv4 {
		t.Fatalf("v6: err = %v, want ErrNotIPv4", err)
	}
	buf[0] = 0x41 // version 4 but IHL 1 (4 bytes, invalid)
	if err := h.Unmarshal(buf); err != ErrBadIHL {
		t.Fatalf("bad ihl: err = %v, want ErrBadIHL", err)
	}
	// TCP packet truncated before the ports.
	good := sampleHeader()
	full := make([]byte, HeaderLen)
	if _, err := good.Marshal(full); err != nil {
		t.Fatal(err)
	}
	if err := h.Unmarshal(full[:21]); err != ErrTruncated {
		t.Fatalf("truncated ports: err = %v, want ErrTruncated", err)
	}
}

func TestUnmarshalNonTransportProtocol(t *testing.T) {
	h := sampleHeader()
	h.Protocol = 1 // ICMP
	h.SrcPort, h.DstPort = 0, 0
	buf := make([]byte, HeaderLen)
	if _, err := h.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	var got Header
	if err := got.Unmarshal(buf); err != nil {
		t.Fatalf("ICMP should decode with zero ports: %v", err)
	}
	if got.SrcPort != 0 || got.DstPort != 0 {
		t.Fatalf("ICMP ports = %d,%d, want 0,0", got.SrcPort, got.DstPort)
	}
}

func TestUnmarshalIHLOptions(t *testing.T) {
	// Build a 24-byte IPv4 header (IHL=6) followed by ports: the decoder
	// must find the ports after the options.
	buf := make([]byte, 28)
	buf[0] = 0x46
	buf[9] = ProtoUDP
	buf[24] = 0x00
	buf[25] = 53 // src port 53
	buf[26] = 0x30
	buf[27] = 0x39 // dst port 12345
	var h Header
	if err := h.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if h.SrcPort != 53 || h.DstPort != 12345 {
		t.Fatalf("ports = %d,%d, want 53,12345", h.SrcPort, h.DstPort)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := IPv4Addr{192, 168, 34, 200}
	if a.String() != "192.168.34.200" {
		t.Fatalf("String = %q", a.String())
	}
	if got := AddrFromUint32(a.Uint32()); got != a {
		t.Fatalf("uint32 round trip: %v", got)
	}
}

func TestFlowKeys(t *testing.T) {
	h := sampleHeader()
	src, dst := h.Packed()
	// The 5-tuple is (src, dst &^ PackedTTLMask); the /24 prefix is the top
	// 24 bits of the packed destination address.
	key := func(h Header) [2]uint64 {
		s, d := h.Packed()
		return [2]uint64{s, d &^ PackedTTLMask}
	}
	k := key(h)
	if got := HeaderFromPacked(src, dst, h.TotalLen); got.SrcIP != h.SrcIP || got.DstPort != h.DstPort || got.Protocol != ProtoTCP {
		t.Fatalf("5-tuple key mismatch: %+v", got)
	}
	if p := AddrFromUint32(uint32(dst>>PackedAddrShift) &^ 0xFF); p != (IPv4Addr{192, 168, 7, 0}) {
		t.Fatalf("prefix key = %v", p)
	}
	// Two packets of the same TCP connection map to the same key; the
	// reverse direction maps to a different key (unidirectional flows, as
	// on a monitored backbone link).
	h2 := h
	h2.TotalLen = 40
	h2.TTL++
	if key(h2) != k {
		t.Fatal("same flow produced different keys")
	}
	rev := Header{SrcIP: h.DstIP, DstIP: h.SrcIP, SrcPort: h.DstPort, DstPort: h.SrcPort, Protocol: ProtoTCP}
	if key(rev) == k {
		t.Fatal("reverse direction must be a distinct flow")
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	h := sampleHeader()
	buf := make([]byte, HeaderLen)
	if _, err := h.Marshal(buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var out Header
	for i := 0; i < b.N; i++ {
		if err := out.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	h := sampleHeader()
	buf := make([]byte, HeaderLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Marshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// The packed-column representation must round-trip every header field and
// place the key material where the flow definitions mask it.
func TestPackedRoundTrip(t *testing.T) {
	hdrs := []Header{
		{
			SrcIP: IPv4Addr{10, 1, 2, 3}, DstIP: IPv4Addr{192, 168, 7, 9},
			Protocol: ProtoTCP, SrcPort: 443, DstPort: 51234,
			TotalLen: 1500, TTL: 64,
		},
		{}, // zero header
		{
			SrcIP: IPv4Addr{255, 255, 255, 255}, DstIP: IPv4Addr{255, 255, 255, 255},
			Protocol: 255, SrcPort: 65535, DstPort: 65535,
			TotalLen: 65535, TTL: 255,
		},
		{DstIP: IPv4Addr{172, 16, 5, 200}, Protocol: ProtoUDP, TTL: 1},
	}
	for i, h := range hdrs {
		src, dst := h.Packed()
		got := HeaderFromPacked(src, dst, h.TotalLen)
		if got != h {
			t.Fatalf("header %d: round trip %+v != %+v", i, got, h)
		}
		// dst IP occupies the top 32 bits: prefix masking on the packed word
		// must agree with masking the address's octets.
		for n, want := range map[int]IPv4Addr{
			8:  {h.DstIP[0]},
			16: {h.DstIP[0], h.DstIP[1]},
			24: {h.DstIP[0], h.DstIP[1], h.DstIP[2]},
		} {
			masked := (dst >> PackedAddrShift) &^ (1<<uint(32-n) - 1)
			if masked != uint64(want.Uint32()) {
				t.Fatalf("header %d: packed /%d prefix %x != %v", i, n, masked, want)
			}
		}
		// TTL must be outside the 5-tuple key material.
		h2 := h
		h2.TTL ^= 0xA5
		src2, dst2 := h2.Packed()
		if src2 != src || dst2&^uint64(PackedTTLMask) != dst&^uint64(PackedTTLMask) {
			t.Fatalf("header %d: TTL leaked into key bits", i)
		}
	}
}
