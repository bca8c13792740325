package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, opts WriterOptions, pkts []Packet) []Packet {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []Packet
	for {
		p, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestRoundTripMicro(t *testing.T) {
	ts := time.Date(2001, 11, 8, 14, 0, 0, 123456000, time.UTC)
	pkts := []Packet{
		{Timestamp: ts, Data: []byte{1, 2, 3, 4}, OrigLen: 1500},
		{Timestamp: ts.Add(200 * time.Millisecond), Data: []byte{9}, OrigLen: 40},
	}
	got := roundTrip(t, WriterOptions{}, pkts)
	if len(got) != 2 {
		t.Fatalf("read %d packets, want 2", len(got))
	}
	if !got[0].Timestamp.Equal(ts) {
		t.Fatalf("ts = %v, want %v", got[0].Timestamp, ts)
	}
	if got[0].OrigLen != 1500 || !bytes.Equal(got[0].Data, pkts[0].Data) {
		t.Fatalf("packet 0 mismatch: %+v", got[0])
	}
}

func TestRoundTripNano(t *testing.T) {
	ts := time.Date(2001, 9, 5, 8, 30, 0, 123456789, time.UTC)
	got := roundTrip(t, WriterOptions{Nanosecond: true},
		[]Packet{{Timestamp: ts, Data: []byte{7, 7}, OrigLen: 44}})
	if !got[0].Timestamp.Equal(ts) {
		t.Fatalf("nanosecond ts = %v, want %v", got[0].Timestamp, ts)
	}
}

func TestMicroTruncatesSubMicro(t *testing.T) {
	ts := time.Date(2020, 1, 1, 0, 0, 0, 1999, time.UTC) // 1.999 µs
	got := roundTrip(t, WriterOptions{}, []Packet{{Timestamp: ts, Data: []byte{1}}})
	want := time.Date(2020, 1, 1, 0, 0, 0, 1000, time.UTC)
	if !got[0].Timestamp.Equal(want) {
		t.Fatalf("ts = %v, want truncated %v", got[0].Timestamp, want)
	}
}

func TestOrigLenDefaultsToDataLen(t *testing.T) {
	got := roundTrip(t, WriterOptions{}, []Packet{{Timestamp: time.Unix(0, 0), Data: []byte{1, 2, 3}}})
	if got[0].OrigLen != 3 {
		t.Fatalf("OrigLen = %d, want 3", got[0].OrigLen)
	}
}

func TestSnapLenEnforced(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{SnapLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(Packet{Data: []byte{1, 2, 3, 4, 5}}); err != ErrSnapTooBig {
		t.Fatalf("err = %v, want ErrSnapTooBig", err)
	}
}

func TestHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{SnapLen: 44, LinkType: LinkTypeRaw})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.snaplen != 44 || r.LinkType() != LinkTypeRaw || r.nano {
		t.Fatalf("header fields: snap=%d link=%d nano=%v", r.snaplen, r.LinkType(), r.nano)
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian capture (e.g. written on a SPARC monitor,
	// plausibly what the paper's testbed used).
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr)
	ph := make([]byte, 16)
	binary.BigEndian.PutUint32(ph[0:4], 1000)
	binary.BigEndian.PutUint32(ph[4:8], 500000) // 0.5 s in µs
	binary.BigEndian.PutUint32(ph[8:12], 2)
	binary.BigEndian.PutUint32(ph[12:16], 60)
	buf.Write(ph)
	buf.Write([]byte{0xde, 0xad})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Fatalf("link type = %d", r.LinkType())
	}
	p, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(1000, 500000000).UTC()
	if !p.Timestamp.Equal(want) || p.OrigLen != 60 || !bytes.Equal(p.Data, []byte{0xde, 0xad}) {
		t.Fatalf("packet = %+v, want ts=%v orig=60 data=dead", p, want)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedFileHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("truncated file header should error")
	}
}

func TestTruncatedPacket(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{})
	if err := w.WritePacket(Packet{Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	r, err := NewReader(bytes.NewReader(whole[:len(whole)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err == nil {
		t.Fatal("mid-record EOF should error")
	}
}

func TestCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Fatalf("empty capture: err = %v, want io.EOF", err)
	}
}

func TestRecordExceedingSnapLenRejectedOnRead(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.LittleEndian.PutUint32(hdr[16:20], 8) // snaplen 8
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	buf.Write(hdr)
	ph := make([]byte, 16)
	binary.LittleEndian.PutUint32(ph[8:12], 100) // incl_len 100 > snaplen
	buf.Write(ph)
	buf.Write(make([]byte, 100))
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err == nil {
		t.Fatal("oversize record should be rejected")
	}
}

// Property: any sequence of small packets round trips bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, secs []uint32) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, WriterOptions{Nanosecond: true})
		if err != nil {
			return false
		}
		n := len(payloads)
		if len(secs) < n {
			n = len(secs)
		}
		for i := 0; i < n; i++ {
			p := Packet{
				Timestamp: time.Unix(int64(secs[i]), int64(i%1_000_000_000)),
				Data:      payloads[i],
			}
			if err := w.WritePacket(p); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			p, err := r.ReadPacket()
			if err != nil {
				return false
			}
			if !bytes.Equal(p.Data, payloads[i]) {
				return false
			}
		}
		_, err = r.ReadPacket()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w, err := NewWriter(io.Discard, WriterOptions{SnapLen: 44})
	if err != nil {
		b.Fatal(err)
	}
	p := Packet{Timestamp: time.Unix(1, 0), Data: make([]byte, 44), OrigLen: 1500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(p); err != nil {
			b.Fatal(err)
		}
	}
}
