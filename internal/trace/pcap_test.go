package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/netpkt"
	"repro/internal/pcap"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// frame is one hand-built capture record: its offset from the capture
// start, the captured bytes and the on-wire length.
type frame struct {
	at   time.Duration
	data []byte
	orig int
}

var captureBase = time.Date(2001, 11, 8, 0, 0, 0, 0, time.UTC)

// capture encodes frames as a pcap of the given link type.
func capture(tb testing.TB, link uint32, frames ...frame) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.WriterOptions{LinkType: link, Nanosecond: true})
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WritePacket(pcap.Packet{Timestamp: captureBase.Add(f.at), Data: f.data, OrigLen: f.orig}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ipFrame marshals h as a raw-IP frame at the given second offset.
func ipFrame(sec float64, h netpkt.Header) frame {
	buf := make([]byte, netpkt.HeaderLen)
	if _, err := h.Marshal(buf); err != nil {
		panic(err)
	}
	return frame{at: time.Duration(sec * float64(time.Second)), data: buf, orig: int(h.TotalLen)}
}

// etherFrame wraps ipFrame in an Ethernet II header of the given EtherType
// whose destination MAC starts with 0x45 — a byte that passes the IPv4
// version check if the link header is not skipped.
func etherFrame(sec float64, h netpkt.Header, etherType uint16) frame {
	f := ipFrame(sec, h)
	eth := make([]byte, 14, 14+len(f.data))
	copy(eth, []byte{0x45, 0x00, 0x5e, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02})
	binary.BigEndian.PutUint16(eth[12:], etherType)
	f.data = append(eth, f.data...)
	f.orig += 14
	return f
}

func tcpHeader(srcPort uint16, size uint16) netpkt.Header {
	return netpkt.Header{
		SrcIP:    netpkt.IPv4Addr{10, 0, 0, 1},
		DstIP:    netpkt.IPv4Addr{192, 168, 1, 2},
		Protocol: netpkt.ProtoTCP,
		SrcPort:  srcPort,
		DstPort:  80,
		TotalLen: size,
		TTL:      64,
	}
}

// appendRecords unpacks blk's packets onto recs.
func appendRecords(recs []trace.Record, blk *trace.Block) []trace.Record {
	for i, t := range blk.Times {
		recs = append(recs, trace.Record{Time: t, Hdr: netpkt.HeaderFromPacked(blk.Srcs[i], blk.Dsts[i], blk.Sizes[i])})
	}
	return recs
}

// streamRecords drains StreamPcap over data into records.
func streamRecords(data []byte) ([]trace.Record, trace.Summary, error) {
	var recs []trace.Record
	sum, err := trace.StreamPcap(context.Background(), bytes.NewReader(data), func(blk *trace.Block) error {
		recs = appendRecords(recs, blk)
		return nil
	})
	return recs, sum, err
}

func pcapConfig() trace.Config {
	size, _ := dist.NewBoundedPareto(1.3, 2000, 200000)
	rate, _ := dist.LognormalFromMoments(200e3, 1)
	return trace.Config{
		Duration:  20,
		Lambda:    80,
		SizeBytes: size,
		RateBps:   rate,
		ShotB:     dist.Constant{V: 1},
		Warmup:    90,
		Seed:      20,
	}
}

// Generator blocks written through PcapWriter stream back through
// StreamPcap with identical headers and times rebased on the first packet.
func TestPcapRoundTrip(t *testing.T) {
	cfg := pcapConfig()
	var want []trace.Record
	_, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, func(blk *trace.Block) error {
		want = appendRecords(want, blk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 100 {
		t.Fatalf("trace too small for a meaningful test: %d records", len(want))
	}
	var buf bytes.Buffer
	pw, err := trace.NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 2, pw.AddBlock); err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, sum, err := streamRecords(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	var bytesSum int64
	for i := range got {
		if got[i].Hdr != want[i].Hdr {
			t.Fatalf("record %d header mismatch:\n got %+v\nwant %+v", i, got[i].Hdr, want[i].Hdr)
		}
		if wantT := want[i].Time - want[0].Time; math.Abs(got[i].Time-wantT) > 1e-6 {
			t.Fatalf("record %d time = %g, want %g", i, got[i].Time, wantT)
		}
		bytesSum += int64(got[i].Hdr.TotalLen)
	}
	if sum.Packets != int64(len(got)) || sum.Bytes != bytesSum || sum.Duration != got[len(got)-1].Time {
		t.Fatalf("summary %+v, want %d packets, %d bytes, duration %g", sum, len(got), bytesSum, got[len(got)-1].Time)
	}
}

func TestStreamPcapEmpty(t *testing.T) {
	var buf bytes.Buffer
	pw, err := trace.NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, sum, err := streamRecords(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || sum != (trace.Summary{}) {
		t.Fatalf("empty capture streamed %d records, summary %+v", len(got), sum)
	}
}

func TestStreamPcapGarbage(t *testing.T) {
	if _, _, err := streamRecords([]byte("not a pcap")); err == nil {
		t.Fatal("garbage input should error")
	}
	junk := frame{data: []byte{0x60, 1, 2, 3}, orig: 4} // IPv6 version nibble
	if _, _, err := streamRecords(capture(t, pcap.LinkTypeRaw, junk, junk)); err == nil {
		t.Fatal("a capture where every record is undecodable should error")
	}
}

// Packet times must never go backwards, relative to the previous packet or
// to the first one; equal times are fine.
func TestStreamPcapOrder(t *testing.T) {
	cases := []struct {
		name string
		secs []float64
		err  string // "" = accepted
	}{
		{"in order", []float64{1000, 1001, 1002, 1003}, ""},
		{"equal times", []float64{1000, 1001, 1001, 1002}, ""},
		{"reversed pair", []float64{1000, 1002, 1001, 1003}, "packet 2 out of order: 1 s after 2 s"},
		{"before the first", []float64{1000, 1001, 999}, "packet 2 out of order: -1 s after 1 s"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var frames []frame
			for i, s := range c.secs {
				frames = append(frames, ipFrame(s, tcpHeader(uint16(1000+i), 40)))
			}
			got, sum, err := streamRecords(capture(t, pcap.LinkTypeRaw, frames...))
			if c.err == "" {
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(c.secs) || sum.Duration != c.secs[len(c.secs)-1]-c.secs[0] {
					t.Fatalf("%d records, duration %g", len(got), sum.Duration)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("err = %v, want it to contain %q", err, c.err)
			}
			if len(got) != 0 {
				t.Fatalf("%d records reached fn before the error", len(got))
			}
		})
	}
}

// An Ethernet capture is decoded behind its 14-byte link header; frames of
// another EtherType or too short for the header are skipped. Decoding the
// MAC bytes as IP would read sizes and addresses out of the link header.
func TestStreamPcapEthernet(t *testing.T) {
	zeroLen := etherFrame(3, tcpHeader(2000, 0), 0x0800)
	zeroLen.orig = 14 + 576 // TotalLen 0 falls back to the IP part of OrigLen
	frames := []frame{
		etherFrame(0, tcpHeader(1000, 1500), 0x0800),
		etherFrame(0.5, tcpHeader(2000, 40), 0x0800),
		etherFrame(1, tcpHeader(1000, 1500), 0x0800),
		etherFrame(1.5, tcpHeader(2000, 576), 0x86dd),
		{at: 2 * time.Second, data: []byte{0x45, 0, 0}, orig: 3},
		etherFrame(2, tcpHeader(1000, 52), 0x0800),
		zeroLen,
		etherFrame(4, tcpHeader(2000, 40), 0x0800),
	}
	data := capture(t, pcap.LinkTypeEthernet, frames...)
	got, sum, err := streamRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := []uint16{1500, 40, 1500, 52, 576, 40}
	if len(got) != len(wantSizes) {
		t.Fatalf("decoded %d packets, want %d", len(got), len(wantSizes))
	}
	for i, rec := range got {
		if rec.Hdr.TotalLen != wantSizes[i] || rec.Hdr.DstIP != (netpkt.IPv4Addr{192, 168, 1, 2}) {
			t.Fatalf("packet %d decoded as %+v", i, rec.Hdr)
		}
	}
	if sum.Bytes != 1500+40+1500+52+576+40 {
		t.Fatalf("summary bytes %d", sum.Bytes)
	}
	m, err := flow.NewMeasurer([]flow.Definition{flow.By5Tuple}, flow.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.StreamPcap(context.Background(), bytes.NewReader(data), m.AddBlock); err != nil {
		t.Fatal(err)
	}
	if res := m.Flush()[0]; len(res.Flows) != 2 {
		t.Fatalf("measured %d flows, want 2: %+v", len(res.Flows), res.Flows)
	}
}

func TestStreamPcapUnsupportedLinkType(t *testing.T) {
	const linuxSLL = 113
	data := capture(t, linuxSLL, ipFrame(0, tcpHeader(1, 40)))
	called := false
	_, err := trace.StreamPcap(context.Background(), bytes.NewReader(data), func(*trace.Block) error {
		called = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "link type 113") {
		t.Fatalf("err = %v, want an unsupported link type 113 error", err)
	}
	if called {
		t.Fatal("fn ran before the link type was rejected")
	}
}

// syntheticCapture writes n hand-packed packets, 1 ms apart, through
// PcapWriter.
func syntheticCapture(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	pw, err := trace.NewPcapWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	blk := trace.GetBlock()
	defer trace.PutBlock(blk)
	for i := 0; i < n; i++ {
		src, dst := tcpHeader(uint16(i%97), uint16(40+i%1400)).Packed()
		blk.Append(float64(i)*1e-3, uint16(40+i%1400), src, dst)
		if blk.Len() == trace.BlockSize || i == n-1 {
			if err := pw.AddBlock(blk); err != nil {
				tb.Fatal(err)
			}
			blk.Reset()
		}
	}
	if err := pw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// StreamPcap holds one pooled block whatever the capture length, and
// returns it on success, on an fn error and on cancellation.
func TestStreamPcapBoundedMemory(t *testing.T) {
	n := 32*trace.BlockSize + 17
	data := syntheticCapture(t, n)
	base := trace.LiveBlocks()

	path := filepath.Join(t.TempDir(), "cap.fstore")
	w, err := store.Create(path, store.Meta{}, store.Options{SegmentPackets: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	blocks := 0
	sum, err := trace.StreamPcap(context.Background(), bytes.NewReader(data), func(blk *trace.Block) error {
		if live := trace.LiveBlocks(); live > base+1 {
			t.Fatalf("%d blocks live inside fn, base %d", live, base)
		}
		blocks++
		return w.AddBlock(blk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if live := trace.LiveBlocks(); live != base {
		t.Fatalf("%d blocks live after StreamPcap, want %d", live, base)
	}
	if sum.Packets != int64(n) || blocks != 33 {
		t.Fatalf("streamed %d packets in %d blocks, want %d in 33", sum.Packets, blocks, n)
	}
	if err := w.Close(sum); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Packets() != int64(n) || r.LastTime() != sum.Duration {
		t.Fatalf("store holds %d packets to %g, want %d to %g", r.Packets(), r.LastTime(), n, sum.Duration)
	}

	errStop := errors.New("stop")
	blocks = 0
	_, err = trace.StreamPcap(context.Background(), bytes.NewReader(data), func(*trace.Block) error {
		if blocks++; blocks == 3 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || blocks != 3 {
		t.Fatalf("err = %v after %d blocks, want errStop after 3", err, blocks)
	}
	if live := trace.LiveBlocks(); live != base {
		t.Fatalf("%d blocks live after an fn error, want %d", live, base)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := trace.StreamPcap(ctx, bytes.NewReader(data), func(*trace.Block) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream: err = %v, want context.Canceled", err)
	}
	if live := trace.LiveBlocks(); live != base {
		t.Fatalf("%d blocks live after cancellation, want %d", live, base)
	}
}

// FuzzStreamPcap feeds arbitrary capture bytes to StreamPcap: it must never
// panic, every block must carry non-negative, non-decreasing times, the
// blocks must add up to the summary on success, and the pooled block must
// always be returned.
func FuzzStreamPcap(f *testing.F) {
	f.Add(syntheticCapture(f, 300))
	f.Add(capture(f, pcap.LinkTypeEthernet,
		etherFrame(0, tcpHeader(1, 1500), 0x0800), etherFrame(1, tcpHeader(2, 40), 0x0800)))
	f.Add(capture(f, pcap.LinkTypeRaw,
		ipFrame(1000, tcpHeader(1, 40)), ipFrame(1002, tcpHeader(2, 40)),
		ipFrame(1001, tcpHeader(3, 40)), ipFrame(1003, tcpHeader(4, 40))))
	trunc := syntheticCapture(f, 3)
	f.Add(trunc[:len(trunc)-10])
	f.Fuzz(func(t *testing.T, data []byte) {
		base := trace.LiveBlocks()
		var n int64
		prev := 0.0
		sum, err := trace.StreamPcap(context.Background(), bytes.NewReader(data), func(blk *trace.Block) error {
			for _, tm := range blk.Times {
				if !(tm >= prev) {
					t.Fatalf("time %g after %g", tm, prev)
				}
				prev = tm
			}
			n += int64(blk.Len())
			return nil
		})
		if err == nil && n != sum.Packets {
			t.Fatalf("blocks carried %d packets, summary says %d", n, sum.Packets)
		}
		if live := trace.LiveBlocks(); live != base {
			t.Fatalf("%d blocks live after return, want %d", live, base)
		}
	})
}
