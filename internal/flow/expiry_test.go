package flow

import (
	"math/rand"
	"testing"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// TestSweepExpiredDifferential drives flowTable insert/update/delete churn
// interleaved with incremental sweepExpired steps against a map+timestamp
// reference, over each of tableKeySpaces. On the degenerate key space the
// whole table is one probe chain, so expiry deletions constantly
// backward-shift entries through the sweep cursor — the exact interleaving
// the incremental sweep must survive.
func TestSweepExpiredDifferential(t *testing.T) {
	type refEntry struct {
		adm  int32
		last float64
		seen int // the last sweep op that found the key live
	}
	for _, tc := range tableKeySpaces(1200) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			var tab flowTable
			tab.reset()
			ref := map[flowKey]*refEntry{}
			now := 0.0
			var chain uint64
			const timeout = 30.0
			for op := 0; op < 30000; op++ {
				now += rng.Float64() * 0.5
				k := tc.keys[rng.Intn(len(tc.keys))]
				h := hashKey(k.a, k.b)
				switch {
				case rng.Intn(10) < 7: // touch: insert or refresh last-seen
					pos, found := tab.find(h, k.a, k.b)
					re, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if !found {
						tab.insert(pos, h, k.a, k.b, now, int32(op))
						ref[k] = &refEntry{adm: int32(op), last: now}
					} else {
						re.last = now
						tab.ent[pos].last = now
					}
				case len(ref) > 0 && rng.Intn(4) == 0: // explicit delete
					pos, found := tab.find(h, k.a, k.b)
					_, refFound := ref[k]
					if found != refFound {
						t.Fatalf("op %d: pre-delete find(%v) = %v, reference %v", op, k, found, refFound)
					}
					if found {
						tab.del(pos)
						delete(ref, k)
					}
				default: // incremental expiry step
					deadline := now - timeout
					tab.sweepExpired(deadline, 32)
					// Every entry still live must be a reference key under
					// its own admission number; every reference key the
					// step removed must have been idle past the deadline.
					for i := range tab.ent {
						e := &tab.ent[i]
						if e.live == 0 {
							continue
						}
						re, ok := ref[e.key]
						if !ok || re.adm != e.adm {
							t.Fatalf("op %d: live entry %v (adm %d) not in the reference", op, e.key, e.adm)
						}
						re.seen = op
					}
					for kk, re := range ref {
						if re.seen == op {
							continue
						}
						if !(re.last < deadline) {
							t.Fatalf("op %d: sweep evicted live key %v (last %g, deadline %g)",
								op, kk, re.last, deadline)
						}
						delete(ref, kk)
					}
					chain = max(chain, maxProbe(&tab))
				}
				if tab.n != len(ref) {
					t.Fatalf("op %d: table holds %d entries, reference %d", op, tab.n, len(ref))
				}
			}
			// Lookup parity over the full key space at the end.
			for _, k := range tc.keys {
				pos, found := tab.find(hashKey(k.a, k.b), k.a, k.b)
				re, refFound := ref[k]
				if found != refFound {
					t.Fatalf("final find(%v) = %v, reference %v", k, found, refFound)
				}
				if found && tab.ent[pos].adm != re.adm {
					t.Fatalf("final adm(%v) = %d, reference %d", k, tab.ent[pos].adm, re.adm)
				}
			}
			if chain < tc.minChain {
				t.Fatalf("longest probe displacement %d, want at least %d", chain, tc.minChain)
			}
		})
	}
}

// TestSweepExpiredFullRotationFindsAllIdle checks the rotation guarantee:
// enough consecutive steps to cover the table evict every idle entry, and
// live entries survive untouched.
func TestSweepExpiredFullRotationFindsAllIdle(t *testing.T) {
	var tab flowTable
	tab.reset()
	// 100 idle entries (last = 1) and 50 live ones (last = 100), each under
	// its index as admission number.
	for i := 0; i < 150; i++ {
		a, b := uint64(i), uint64(0)
		h := hashKey(a, b)
		pos, found := tab.find(h, a, b)
		if found {
			t.Fatal("duplicate key in setup")
		}
		last := 100.0
		if i < 100 {
			last = 1
		}
		tab.insert(pos, h, a, b, last, int32(i))
	}
	deadline := 50.0
	// Steps of 16 positions; 2*size/16 steps guarantee a full rotation even
	// with deleting steps not advancing the cursor (each delete shrinks the
	// remaining work).
	steps := 2 * len(tab.ent) / 16
	for s := 0; s < steps; s++ {
		tab.sweepExpired(deadline, 16)
	}
	if tab.n != 50 {
		t.Fatalf("table holds %d entries after expiry, want 50", tab.n)
	}
	for i := 0; i < 150; i++ {
		a, b := uint64(i), uint64(0)
		pos, found := tab.find(hashKey(a, b), a, b)
		if found != (i >= 100) {
			t.Fatalf("entry %d live = %v after a full rotation", i, found)
		}
		if found && tab.ent[pos].adm != int32(i) {
			t.Fatalf("entry %d moved under admission number %d", i, tab.ent[pos].adm)
		}
	}
}

// TestAssemblerExpiryInterleavedWithChurn runs the assembler over a stream
// engineered so incremental expiry, timeout flow splits, and table growth
// all interleave, and compares against the map reference — results must be
// identical no matter when eviction happens.
func TestAssemblerExpiryInterleavedWithChurn(t *testing.T) {
	for seed := int64(40); seed < 43; seed++ {
		recs := randomRecords(8000, seed)
		// Stretch time so many flows idle past the 5 s timeout.
		for i := range recs {
			recs[i].Time *= 3
		}
		a, err := NewAssembler(By5Tuple, 5)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefAssembler(By5Tuple, 5)
		for _, rec := range recs {
			if err := a.Add(rec); err != nil {
				t.Fatal(err)
			}
			ref.add(rec)
		}
		got, want := a.Flush(), ref.flush()
		if !resultsEqual(got, want) {
			t.Fatalf("seed %d: expiry-churn stream diverged from reference (%d/%d vs %d/%d)",
				seed, len(got.Flows), len(got.Discarded), len(want.Flows), len(want.Discarded))
		}
	}
}

// keyedPacket is a 5-tuple packet of flow k at time t.
func keyedPacket(blk *trace.Block, t float64, k int) {
	src, dst := netpkt.Header{
		SrcIP:    netpkt.IPv4Addr{10, byte(k >> 16), byte(k >> 8), byte(k)},
		DstIP:    netpkt.IPv4Addr{172, 16, 0, 1},
		Protocol: netpkt.ProtoTCP,
		SrcPort:  1000,
		DstPort:  80,
	}.Packed()
	blk.Append(t, 100, src, dst)
}

// TestSweepBoundsIdleByStreamTime checks the paced sweep's contract: after
// every block, no table entry was last seen more than 1.5 × timeout of
// stream time before the block's last packet. The streams cover steady
// churn, gaps of 1e6 s and 1e300 s (whose rotation budgets must clamp to
// the table size), and a packet rate that triples mid-stream, so the table
// doubles partway through a rotation while idle flows near the bound.
func TestSweepBoundsIdleByStreamTime(t *testing.T) {
	const timeout = 5.0
	type step struct {
		dt   float64 // stream time since the previous packet
		keys int     // the packet's flow is drawn from [0, keys)
	}
	for _, tc := range []struct {
		name   string
		stream func(i int, rng *rand.Rand) step
		grows  bool // the table must double after the first timeout
	}{
		{"steady", func(i int, rng *rand.Rand) step {
			return step{rng.Float64() * 0.01, 5000}
		}, false},
		{"gaps", func(i int, rng *rand.Rand) step {
			switch i {
			case 20000:
				return step{1e6, 5000}
			case 40000:
				return step{1e300, 5000}
			}
			return step{rng.Float64() * 0.01, 5000}
		}, false},
		{"doubling", func(i int, rng *rand.Rand) step {
			// Fresh keys at about 200/s hold the table steady below its load
			// limit, with idle entries of every age up to the bound. From
			// t ≈ 50 s the rate triples, and the table doubles twice while
			// the oldest entries are a quarter timeout from the bound.
			if i < 10000 {
				return step{rng.Float64() * 0.01, 1 << 22}
			}
			return step{rng.Float64() * 0.003, 1 << 22}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(28))
			m, err := NewMeasurer([]Definition{By5Tuple}, timeout)
			if err != nil {
				t.Fatal(err)
			}
			a := m.asm[0]
			// The stream is only added, never flushed or reset, and a key
			// that times out reopens in its own entry, so the table holds
			// fewer entries than keys seen only once the sweep deleted one.
			seen, swept := map[int]bool{}, false
			grewIdle := false
			blk := &trace.Block{}
			now := 0.0
			for i := 0; i < 60000; {
				blk.Reset()
				for n := 1 + rng.Intn(300); n > 0 && i < 60000; n, i = n-1, i+1 {
					st := tc.stream(i, rng)
					now += st.dt
					k := rng.Intn(st.keys)
					seen[k] = true
					keyedPacket(blk, now, k)
				}
				size := len(a.table.ent)
				if err := m.AddBlock(blk); err != nil {
					t.Fatal(err)
				}
				if len(a.table.ent) > size && now >= a.idleAt {
					grewIdle = true
				}
				if a.ActiveFlows() < len(seen) {
					swept = true
				}
				last := blk.Times[blk.Len()-1]
				for _, e := range a.table.ent {
					if e.live != 0 && last-e.last > 1.5*timeout {
						t.Fatalf("packet %d (t=%g): entry last seen at %g outlived 1.5 × timeout", i, last, e.last)
					}
				}
			}
			if !swept {
				t.Fatal("the stream evicted nothing")
			}
			if tc.grows && !grewIdle {
				t.Fatal("the table never doubled once flows could be idle")
			}
		})
	}
}
