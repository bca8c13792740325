package flow

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// tableKeySpace is a key space the table tests draw from, with the probe
// displacement (how far some entry sits past its home position) a run over
// it must reach, so that its collision coverage cannot silently vanish.
type tableKeySpace struct {
	name     string
	keys     []flowKey
	minChain uint64
}

// tableKeySpaces returns three spaces of n keys each: every (a, b) with
// b < 8 under the real hash; keys whose hashKey values agree in their low
// 12 bits, so at every capacity up to 4096 they share one home position
// and the whole table is one probe chain (full-key comparisons and
// backward-shift deletion are then the only things keeping lookups
// correct); and keys that share home positions in pairs, collisions
// without a single mega-chain. Homes come from hashKey itself, because the
// table recomputes it from stored keys whenever an entry moves.
func tableKeySpaces(n int) []tableKeySpace {
	real := make([]flowKey, n)
	for i := range real {
		real[i] = flowKey{uint64(i / 8), uint64(i % 8)}
	}
	return []tableKeySpace{
		{"real-hash", real, 1},
		{"degenerate-hash", collidingKeys(n, n, 12), 64},
		{"paired-hash", collidingKeys(n, 2, 12), 1},
	}
}

// collidingKeys returns n distinct keys in groups of group whose hashKey
// values agree in their low bits bits, each group on a home no other key
// of the set uses.
func collidingKeys(n, group int, bits uint) []flowKey {
	mask := uint64(1)<<bits - 1
	key := func(a uint64) flowKey { return flowKey{a, a * 0x2545f4914f6cdd1d} }
	home := func(k flowKey) uint64 { return hashKey(k.a, k.b) & mask }
	used := map[uint64]bool{}
	out := make([]flowKey, 0, n)
	for next := uint64(1); len(out) < n; next++ {
		// A group starts on the next key whose home no group has taken.
		for used[home(key(next))] {
			next++
		}
		h := home(key(next))
		used[h] = true
		out = append(out, key(next))
		for a, m := next+1, 1; m < group && len(out) < n; a++ {
			if k := key(a); home(k) == h {
				out = append(out, k)
				m++
			}
		}
	}
	return out
}

// maxProbe returns the largest distance, in positions, between a live
// entry and its home position.
func maxProbe(tab *flowTable) uint64 {
	var m uint64
	for i := range tab.ent {
		if e := &tab.ent[i]; e.live != 0 {
			m = max(m, (uint64(i)-tab.home(e))&tab.mask)
		}
	}
	return m
}

// TestFlowTableDifferential drives the open-addressed table against a map
// reference through a random insert/lookup/delete workload over each of
// tableKeySpaces, checking every key's admission number survives the
// entry moves of deletion and growth.
func TestFlowTableDifferential(t *testing.T) {
	for _, tc := range tableKeySpaces(1600) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var tab flowTable
			tab.reset()
			ref := map[flowKey]int32{}
			keys := make([]flowKey, 0, 512)
			var chain uint64
			for op := 0; op < 20000; op++ {
				k := tc.keys[rng.Intn(len(tc.keys))]
				h := hashKey(k.a, k.b)
				switch {
				case rng.Intn(10) < 6: // insert or update-check
					pos, found := tab.find(h, k.a, k.b)
					_, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if !found {
						adm := int32(op)
						tab.insert(pos, h, k.a, k.b, 0, adm)
						ref[k] = adm
						keys = append(keys, k)
					}
				case len(ref) > 0 && rng.Intn(10) < 5: // delete a known key
					k = keys[rng.Intn(len(keys))]
					h = hashKey(k.a, k.b)
					pos, found := tab.find(h, k.a, k.b)
					_, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: pre-delete find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if found {
						tab.del(pos)
						delete(ref, k)
					}
				default: // lookup parity, including admission numbers
					pos, found := tab.find(h, k.a, k.b)
					adm, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if found && tab.ent[pos].adm != adm {
						t.Fatalf("op %d: adm(%v) = %d, reference %d", op, k, tab.ent[pos].adm, adm)
					}
				}
				if tab.n != len(ref) {
					t.Fatalf("op %d: table holds %d entries, reference %d", op, tab.n, len(ref))
				}
				if op%500 == 0 {
					chain = max(chain, maxProbe(&tab))
				}
			}
			if chain < tc.minChain {
				t.Fatalf("longest probe displacement %d, want at least %d", chain, tc.minChain)
			}
		})
	}
}

// refState is the reference's in-progress flow.
type refState struct {
	start, last float64
	bytes       int64
	packets     int
	// firstBits remembers the only packet's size while packets == 1.
	firstBits float64
}

// refAssembler is the pre-table reference: the exact map-based assembly
// logic the open-addressed rewrite replaced, kept here as the differential
// oracle.
type refAssembler struct {
	keyFn     func(netpkt.Header) any
	timeout   float64
	active    map[any]*refState
	res       Result
	lastSweep float64
}

func newRefAssembler(def Definition, timeout float64) *refAssembler {
	var keyFn func(netpkt.Header) any
	switch def {
	case By5Tuple:
		// The 5-tuple: the header without its per-packet fields.
		keyFn = func(h netpkt.Header) any { h.TotalLen, h.TTL = 0, 0; return h }
	case ByPrefix24:
		keyFn = func(h netpkt.Header) any { return h.DstIP.Uint32() &^ 0xFF }
	case ByPrefix16:
		keyFn = func(h netpkt.Header) any { return h.DstIP.Uint32() &^ 0xFFFF }
	case ByPrefix8:
		keyFn = func(h netpkt.Header) any { return h.DstIP.Uint32() &^ 0xFFFFFF }
	}
	return &refAssembler{keyFn: keyFn, timeout: timeout, active: map[any]*refState{}}
}

func (a *refAssembler) add(rec trace.Record) {
	key := a.keyFn(rec.Hdr)
	bits := float64(rec.Hdr.TotalLen) * 8
	st, ok := a.active[key]
	switch {
	case !ok:
		a.active[key] = &refState{
			start: rec.Time, last: rec.Time,
			bytes: int64(rec.Hdr.TotalLen), packets: 1, firstBits: bits,
		}
	case rec.Time-st.last > a.timeout:
		a.finish(st)
		*st = refState{
			start: rec.Time, last: rec.Time,
			bytes: int64(rec.Hdr.TotalLen), packets: 1, firstBits: bits,
		}
	default:
		st.last = rec.Time
		st.bytes += int64(rec.Hdr.TotalLen)
		st.packets++
	}
	if rec.Time-a.lastSweep > a.timeout {
		for k, st := range a.active {
			if rec.Time-st.last > a.timeout {
				a.finish(st)
				delete(a.active, k)
			}
		}
		a.lastSweep = rec.Time
	}
}

func (a *refAssembler) finish(st *refState) {
	if st.packets == 1 {
		a.res.Discarded = append(a.res.Discarded, DiscardedPacket{Time: st.start, Bits: st.firstBits})
		return
	}
	a.res.Flows = append(a.res.Flows, Flow{Start: st.start, End: st.last, Bytes: st.bytes, Packets: st.packets})
}

func (a *refAssembler) flush() Result {
	for k, st := range a.active {
		a.finish(st)
		delete(a.active, k)
	}
	out := a.res
	a.res = Result{}
	sortResult(&out)
	return out
}

// sortResult applies Flush's canonical ordering to a reference result: a
// stable sort by start, end and size (discards by time and size).
func sortResult(r *Result) {
	slices.SortStableFunc(r.Flows, func(x, y Flow) int {
		return cmp.Or(cmp.Compare(x.Start, y.Start), cmp.Compare(x.End, y.End), cmp.Compare(x.Bytes, y.Bytes))
	})
	slices.SortStableFunc(r.Discarded, func(x, y DiscardedPacket) int {
		return cmp.Or(cmp.Compare(x.Time, y.Time), cmp.Compare(x.Bits, y.Bits))
	})
}

// randomRecords draws a time-ordered random packet stream over a small key
// space (so flows collide, split on timeouts, and sweep evictions happen).
func randomRecords(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.Float64() * 0.8
		recs = append(recs, trace.Record{
			Time: now,
			Hdr: netpkt.Header{
				SrcIP:    netpkt.IPv4Addr{10, 0, 0, byte(rng.Intn(2))},
				DstIP:    netpkt.IPv4Addr{byte(170 + rng.Intn(2)), 0, byte(rng.Intn(2)), byte(rng.Intn(4))},
				Protocol: netpkt.ProtoTCP,
				SrcPort:  uint16(1000 + rng.Intn(2)),
				DstPort:  80,
				TotalLen: uint16(40 + rng.Intn(1460)),
				TTL:      byte(32 + rng.Intn(3)), // TTL varies within a flow key
			},
		})
	}
	return recs
}

func resultsEqual(a, b Result) bool {
	if len(a.Flows) != len(b.Flows) || len(a.Discarded) != len(b.Discarded) {
		return false
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			return false
		}
	}
	for i := range a.Discarded {
		if a.Discarded[i] != b.Discarded[i] {
			return false
		}
	}
	return true
}

// TestAssemblerMatchesMapReference runs a long random stream (timeouts,
// sweeps, flushes) through the open-addressed assembler and the map-based
// reference, under every definition, and requires identical results.
func TestAssemblerMatchesMapReference(t *testing.T) {
	for _, def := range []Definition{By5Tuple, ByPrefix24, ByPrefix16, ByPrefix8} {
		for seed := int64(1); seed <= 3; seed++ {
			recs := randomRecords(5000, seed)
			a, err := NewAssembler(def, 20)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefAssembler(def, 20)
			for i, rec := range recs {
				if err := a.Add(rec); err != nil {
					t.Fatal(err)
				}
				ref.add(rec)
				// A mid-stream flush every ~2000 packets exercises the
				// boundary-split path of both.
				if i%2000 == 1999 {
					got, want := a.Flush(), ref.flush()
					if !resultsEqual(got, want) {
						t.Fatalf("def %v seed %d: mid-stream flush diverged (%d/%d vs %d/%d)",
							def, seed, len(got.Flows), len(got.Discarded), len(want.Flows), len(want.Discarded))
					}
				}
			}
			got, want := a.Flush(), ref.flush()
			if len(want.Flows) == 0 {
				t.Fatalf("def %v seed %d: degenerate reference (no flows)", def, seed)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("def %v seed %d: final flush diverged (%d/%d vs %d/%d)",
					def, seed, len(got.Flows), len(got.Discarded), len(want.Flows), len(want.Discarded))
			}
		}
	}
}

// TestMeasurerBlockSizesAgree feeds the same stream through one
// record-at-a-time assembler per definition and through a Measurer's
// AddBlock at several block sizes; the batch path's column derivation, its
// flush-time prefix merge and its boundary handling must never change the
// measurement.
func TestMeasurerBlockSizesAgree(t *testing.T) {
	recs := randomRecords(4000, 7)
	defs := []Definition{By5Tuple, ByPrefix24, ByPrefix16}
	base := make([]Result, len(defs))
	for di, def := range defs {
		res, err := measureRecords(recs, def, 15)
		if err != nil {
			t.Fatal(err)
		}
		base[di] = res
	}
	for _, bs := range []int{1, 64, 256, 1000} {
		m, err := NewMeasurer(defs, 15)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(recs); i += bs {
			end := i + bs
			if end > len(recs) {
				end = len(recs)
			}
			blk := &trace.Block{}
			for _, rec := range recs[i:end] {
				src, dst := rec.Hdr.Packed()
				blk.Append(rec.Time, rec.Hdr.TotalLen, src, dst)
			}
			if err := m.AddBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
		got := m.Flush()
		for di := range defs {
			if !resultsEqual(got[di], base[di]) {
				t.Fatalf("block size %d, def %v: results diverge from record path", bs, defs[di])
			}
		}
	}
}
