package flow

import (
	"math"
	"testing"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// FuzzAssemblerAddBlock drives a four-definition Measurer (5-tuple, /24,
// /16, /8) with sorted, non-negative, finite packet times (ties,
// exact-timeout gaps, and jumps of 1e6 s and up to 1e300 s) over a small
// key space, cut into blocks at input-chosen points, with flushes and
// Resets between blocks. It must never panic, and every flush must equal
// the per-packet map reference's under every definition: the prefix
// definitions' flows are merged from the 5-tuple flows at flush, so this
// checks the merge against per-packet prefix assembly. The reference is
// admissionRef, whose order is deterministic also when flows tie on every
// compared field and differ only in packet count.
//
// Input: byte 0 picks the timeout, a mantissa 1..16 times 2^-6..2^9 s.
// Each following 3-byte group is one packet: a time-step code, a key byte
// (bits 0-1 the source, 2-5 the destination's last two octets, 6-7 its
// first two, so packets differ at /24, /16 and /8) and a flags byte (bit 0
// ends the block, bit 1 then flushes, bit 2 then also resets; the rest
// sets the size and the TTL).
func FuzzAssemblerAddBlock(f *testing.F) {
	f.Add([]byte{0x62, 10, 1, 0, 10, 2, 0, 0, 1, 3, 70, 5, 0})
	f.Add([]byte{0x41, 0, 0, 0, 0, 1, 0, 0, 2, 1, 250, 3, 0, 0, 4, 3, 251, 5, 1, 0, 6, 2})
	f.Add([]byte{0x9f, 64, 7, 9, 254, 7, 8, 199, 9, 1, 254, 9, 3, 252, 4, 7})
	// One /24 (timeout 1 s): a second 5-tuple flow starting exactly one
	// timeout after the first ends merges; a third starting one timeout
	// and 1/64 s after the second ends splits.
	f.Add([]byte{0x60, 0, 0, 0, 1, 0, 0, 64, 1, 0, 1, 1, 0, 65, 2, 0, 1, 2, 0})
	// A 5-tuple flow spans a shorter one; the next starts within the
	// timeout of the long flow's end but not of the short one's.
	f.Add([]byte{0x60, 0, 0, 0, 8, 1, 0, 8, 1, 0, 32, 0, 0, 40, 2, 0, 1, 2, 0})
	// Two /24 flows start together and tie on end and size (280 B) with 7
	// and 2 packets; the first admitted stays first.
	f.Add([]byte{0x60, 0, 4, 0, 200, 0, 0, 200, 1, 0, 200, 2, 0, 1, 0, 0, 200, 1, 0, 200, 2, 0, 200, 3, 0, 200, 4, 32})
	// Two flows in different /24s, a flush without a reset, then two
	// 5-tuple flows in one /24 within the timeout.
	f.Add([]byte{0x60, 0, 0, 0, 1, 0, 0, 1, 4, 0, 1, 4, 3, 1, 9, 0, 1, 9, 0, 1, 10, 0, 1, 10, 0})
	defs := []Definition{By5Tuple, ByPrefix24, ByPrefix16, ByPrefix8}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		timeout := math.Ldexp(float64(1+data[0]&15), int(data[0]>>4)-6)
		m, err := NewMeasurer(defs, timeout)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*admissionRef, len(defs))
		for di, def := range defs {
			refs[di] = newAdmissionRef(def, timeout)
		}
		flush := func(at int) {
			for di, got := range m.Flush() {
				if want, _ := refs[di].flush(); !resultsEqual(got, want) {
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
				DstIP:    netpkt.IPv4Addr{172 | key>>7, 16 | key>>6&1, key >> 2 & 3, key >> 4 & 3},
				Protocol: netpkt.ProtoTCP,
				SrcPort:  1000,
				DstPort:  80,
				TotalLen: 40 + uint16(flags>>3)*50,
				TTL:      flags >> 3,
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
