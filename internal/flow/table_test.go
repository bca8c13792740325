package flow

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// TestFlowTableDifferential drives the open-addressed table against a map
// reference through a random insert/lookup/delete workload. The adversarial
// variant gives every key the same hash, so the whole table is one probe
// chain: full-key comparisons and backward-shift deletion are then the only
// things keeping lookups correct.
func TestFlowTableDifferential(t *testing.T) {
	type key struct{ a, b uint64 }
	for _, tc := range []struct {
		name string
		hash func(a, b uint64) uint64
	}{
		{"real-hash", hashKey},
		// All keys collide onto one chain (hash 7 everywhere).
		{"degenerate-hash", func(a, b uint64) uint64 { return 7 }},
		// Pairs of keys share a hash: collisions without a single mega-chain.
		{"paired-hash", func(a, b uint64) uint64 { return hashKey(a/2, b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var tab flowTable
			tab.reset()
			ref := map[key]int32{}
			keys := make([]key, 0, 512)
			for op := 0; op < 20000; op++ {
				k := key{uint64(rng.Intn(200)), uint64(rng.Intn(8))}
				h := tc.hash(k.a, k.b)
				switch {
				case rng.Intn(10) < 6: // insert or update-check
					pos, found := tab.find(h, k.a, k.b)
					_, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if !found {
						slot := int32(len(ref))
						tab.insert(pos, h, k.a, k.b, slot)
						ref[k] = slot
						keys = append(keys, k)
					}
				case len(ref) > 0 && rng.Intn(10) < 5: // delete a known key
					k = keys[rng.Intn(len(keys))]
					h = tc.hash(k.a, k.b)
					pos, found := tab.find(h, k.a, k.b)
					_, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: pre-delete find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if found {
						tab.del(pos)
						delete(ref, k)
					}
				default: // lookup parity, including slot values
					pos, found := tab.find(h, k.a, k.b)
					slot, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if found && tab.slot[pos] != slot {
						t.Fatalf("op %d: slot(%v) = %d, reference %d", op, k, tab.slot[pos], slot)
					}
				}
				if tab.n != len(ref) {
					t.Fatalf("op %d: table holds %d entries, reference %d", op, tab.n, len(ref))
				}
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
// AddBlock at several block sizes; the batch path's shared key derivation
// and boundary handling must never change the measurement.
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
