package flow

import (
	"math"
	"testing"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// FuzzAssemblerAddBlock drives a two-definition Measurer with sorted,
// non-negative, finite packet times (ties, exact-timeout gaps, and jumps
// of 1e6 s and up to 1e300 s) over a small key space, cut into blocks at
// input-chosen points, with flushes and Resets between blocks. It must
// never panic, and every flush must equal the map reference's.
//
// Input: byte 0 picks the timeout, a mantissa 1..16 times 2^-6..2^9 s.
// Each following 3-byte group is one packet: a time-step code, a key byte
// and a flags byte (bit 0 ends the block, bit 1 then flushes, bit 2 then
// also resets; the rest sets the size).
func FuzzAssemblerAddBlock(f *testing.F) {
	f.Add([]byte{0x62, 10, 1, 0, 10, 2, 0, 0, 1, 3, 70, 5, 0})
	f.Add([]byte{0x41, 0, 0, 0, 0, 1, 0, 0, 2, 1, 250, 3, 0, 0, 4, 3, 251, 5, 1, 0, 6, 2})
	f.Add([]byte{0x9f, 64, 7, 9, 254, 7, 8, 199, 9, 1, 254, 9, 3, 252, 4, 7})
	defs := []Definition{By5Tuple, ByPrefix24}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		timeout := math.Ldexp(float64(1+data[0]&15), int(data[0]>>4)-6)
		m, err := NewMeasurer(defs, timeout)
		if err != nil {
			t.Fatal(err)
		}
		refs := []*refAssembler{newRefAssembler(defs[0], timeout), newRefAssembler(defs[1], timeout)}
		flush := func(at int) {
			for di, got := range m.Flush() {
				if want := refs[di].flush(); !resultsEqual(got, want) {
					t.Fatalf("packet %d, def %v: flush diverged from the reference (%d/%d vs %d/%d)",
						at, defs[di], len(got.Flows), len(got.Discarded), len(want.Flows), len(want.Discarded))
				}
			}
		}
		blk := &trace.Block{}
		add := func(at int) {
			if err := m.AddBlock(blk); err != nil {
				t.Fatalf("packet %d: %v", at, err)
			}
			blk.Reset()
		}
		now := 0.0
		data = data[1:min(len(data), 1+3*1024)]
		for i := 0; i+3 <= len(data); i += 3 {
			code, key, flags := data[i], data[i+1], data[i+2]
			switch {
			case code < 200:
				now += float64(code) * timeout / 64
			case code < 250: // a tie
			case code == 250:
				now += 1e6
			case code == 251:
				now += 1e300
			case code == 252:
				now += math.MaxFloat64
			default:
				now += timeout
			}
			now = min(now, 1e300)
			hdr := netpkt.Header{
				SrcIP:    netpkt.IPv4Addr{10, 0, 0, key & 3},
				DstIP:    netpkt.IPv4Addr{172, 16, key >> 2 & 3, key >> 4 & 3},
				Protocol: netpkt.ProtoTCP,
				SrcPort:  1000,
				DstPort:  80,
				TotalLen: 40 + uint16(flags>>3)*50,
				TTL:      key >> 6,
			}
			src, dst := hdr.Packed()
			blk.Append(now, hdr.TotalLen, src, dst)
			for _, ref := range refs {
				ref.add(trace.Record{Time: now, Hdr: hdr})
			}
			if flags&1 != 0 {
				add(i / 3)
				if flags&2 != 0 {
					flush(i / 3)
					if flags&4 != 0 {
						m.Reset()
					}
				}
			}
		}
		add(-1)
		flush(-1)
	})
}
