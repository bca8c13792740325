package flow

import (
	"math"
	"testing"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// pkt is one packet of a hand-built stream: src picks the 5-tuple inside
// the destination dst.
type pkt struct {
	t    float64
	src  byte
	dst  netpkt.IPv4Addr
	size uint16
}

func records(pkts []pkt) []trace.Record {
	recs := make([]trace.Record, len(pkts))
	for i, p := range pkts {
		recs[i] = trace.Record{Time: p.t, Hdr: netpkt.Header{
			SrcIP:    netpkt.IPv4Addr{10, 0, 0, p.src},
			DstIP:    p.dst,
			Protocol: netpkt.ProtoTCP,
			SrcPort:  1000,
			DstPort:  80,
			TotalLen: p.size,
		}}
	}
	return recs
}

// TestMeasurerMergesPrefixFlows pins the flush-time merge of prefix flows
// from 5-tuple flows on the cases where it can go wrong. Each stream runs
// through a four-definition Measurer, cut into phases with a Flush (and no
// Reset) between them; every prefix result must equal a per-packet
// prefix assembler's on the same phases, and the /24 result must carry
// the flows the case names.
func TestMeasurerMergesPrefixFlows(t *testing.T) {
	const timeout = 5.0
	x, y, z := netpkt.IPv4Addr{172, 16, 1, 1}, netpkt.IPv4Addr{172, 16, 1, 2}, netpkt.IPv4Addr{172, 16, 2, 1}
	for _, tc := range []struct {
		name   string
		phases [][]pkt
		want24 []Flow // the /24 flows of the last phase
	}{
		{
			// The second flow starts exactly one timeout after the first
			// ends: the per-packet test merges on equality.
			name: "gap equal to the timeout merges",
			phases: [][]pkt{{
				{0, 1, x, 100}, {1, 1, x, 100},
				{1 + timeout, 2, y, 100}, {2 + timeout, 2, y, 100},
			}},
			want24: []Flow{{Start: 0, End: 2 + timeout, Bytes: 400, Packets: 4}},
		},
		{
			name: "gap one step past the timeout splits",
			phases: [][]pkt{{
				{0, 1, x, 100}, {1, 1, x, 100},
				{math.Nextafter(1+timeout, math.Inf(1)), 2, y, 100}, {2 + timeout, 2, y, 100},
			}},
			want24: []Flow{
				{Start: 0, End: 1, Bytes: 200, Packets: 2},
				{Start: math.Nextafter(1+timeout, math.Inf(1)), End: 2 + timeout, Bytes: 200, Packets: 2},
			},
		},
		{
			// Flow 1 spans flow 2, which ends first; flow 3 starts within
			// the timeout of flow 1's end but not of flow 2's, so the
			// group's latest end must be flow 1's.
			name: "member spanning a later member's start",
			phases: [][]pkt{{
				{0, 1, x, 100}, {1, 2, y, 100}, {2, 2, y, 100},
				{4, 1, x, 100}, {8, 1, x, 100},
				{12, 3, x, 100}, {13, 3, x, 100},
			}},
			want24: []Flow{{Start: 0, End: 13, Bytes: 700, Packets: 7}},
		},
		{
			// Two /24 flows tie on start, end and size and differ in
			// packets; the /24 admitted first (z's first packet comes
			// first) must stay first.
			name: "equal starts keep admission order",
			phases: [][]pkt{{
				{0, 3, z, 100}, {0, 1, x, 50}, {0.5, 2, y, 100}, {1, 1, x, 50}, {1, 3, z, 100},
			}},
			want24: []Flow{
				{Start: 0, End: 1, Bytes: 200, Packets: 2},
				{Start: 0, End: 1, Bytes: 200, Packets: 3},
			},
		},
		{
			// Two flows in different /24s, a Flush without Reset, then two
			// 5-tuple flows in one /24 within the timeout: the merge must
			// read the second phase's addresses, not the first's.
			name: "flush without reset",
			phases: [][]pkt{
				{{0, 1, x, 100}, {1, 1, x, 100}, {2, 4, z, 100}, {3, 4, z, 100}},
				{{4, 2, z, 100}, {5, 2, z, 100}, {6, 3, z, 100}, {7, 3, z, 100}},
			},
			want24: []Flow{{Start: 4, End: 7, Bytes: 400, Packets: 4}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defs := []Definition{By5Tuple, ByPrefix24, ByPrefix16, ByPrefix8}
			m, err := NewMeasurer(defs, timeout)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*Assembler, len(defs))
			for di, def := range defs {
				if refs[di], err = NewAssembler(def, timeout); err != nil {
					t.Fatal(err)
				}
			}
			var got []Result
			for _, phase := range tc.phases {
				recs := records(phase)
				blk := &trace.Block{}
				for _, rec := range recs {
					src, dst := rec.Hdr.Packed()
					blk.Append(rec.Time, rec.Hdr.TotalLen, src, dst)
					for _, ref := range refs {
						if err := ref.Add(rec); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := m.AddBlock(blk); err != nil {
					t.Fatal(err)
				}
				got = m.Flush()
				for di, ref := range refs {
					if want := ref.Flush(); !resultsEqual(got[di], want) {
						t.Fatalf("%v: merged %+v, per-packet %+v", defs[di], got[di], want)
					}
				}
			}
			if !resultsEqual(Result{Flows: got[1].Flows}, Result{Flows: tc.want24}) {
				t.Fatalf("/24 flows %+v, want %+v", got[1].Flows, tc.want24)
			}
		})
	}
}

// TestNewMeasurerRejectsRepeatedDefinition: a definition named twice
// would merge from itself, so NewMeasurer refuses it.
func TestNewMeasurerRejectsRepeatedDefinition(t *testing.T) {
	for _, defs := range [][]Definition{{By5Tuple, By5Tuple}, {ByPrefix24, ByPrefix8, ByPrefix24}} {
		if _, err := NewMeasurer(defs, DefaultTimeout); err == nil {
			t.Fatalf("NewMeasurer(%v) accepted a repeated definition", defs)
		}
	}
}
