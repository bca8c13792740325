package flow

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// admissionRef is the order oracle of Flush: it keeps every flow in
// admission order (a new key, or a key whose previous flow timed out) with
// no table or sweep, and orders a flush by a stable sort of those
// entries under sortResult's comparator.
type admissionRef struct {
	keyFn   func(netpkt.Header) any
	timeout float64
	open    map[any]int // key → index in flows of its latest flow
	flows   []Flow
}

func newAdmissionRef(def Definition, timeout float64) *admissionRef {
	return &admissionRef{keyFn: newRefAssembler(def, timeout).keyFn, timeout: timeout, open: map[any]int{}}
}

func (r *admissionRef) add(rec trace.Record) {
	k := r.keyFn(rec.Hdr)
	if i, ok := r.open[k]; ok && rec.Time-r.flows[i].End <= r.timeout {
		f := &r.flows[i]
		f.End = rec.Time
		f.Bytes += int64(rec.Hdr.TotalLen)
		f.Packets++
		return
	}
	r.open[k] = len(r.flows)
	r.flows = append(r.flows, Flow{Start: rec.Time, End: rec.Time, Bytes: int64(rec.Hdr.TotalLen), Packets: 1})
}

// flush returns the admitted flows split and stably sorted, and whether
// the sort moved any entry out of admission order.
func (r *admissionRef) flush() (res Result, moved bool) {
	for _, f := range r.flows {
		if f.Packets == 1 {
			res.Discarded = append(res.Discarded, DiscardedPacket{Time: f.Start, Bits: f.SizeBits()})
		} else {
			res.Flows = append(res.Flows, f)
		}
	}
	admitted := Result{Flows: slices.Clone(res.Flows), Discarded: slices.Clone(res.Discarded)}
	sortResult(&res)
	r.reset()
	return res, !resultsEqual(admitted, res)
}

func (r *admissionRef) reset() {
	clear(r.open)
	r.flows = r.flows[:0]
}

// tiedRecords draws a time-ordered stream on dyadic timestamps (so timeout
// arithmetic is exact) over a small key space: half the packets share the
// previous packet's timestamp on a distinct key, and rare idle gaps of
// three timeouts let sweeps evict whole tables before keys return.
func tiedRecords(n int, seed int64, timeout float64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, 0, n)
	now := 0.0
	for range n {
		switch r := rng.Intn(100); {
		case r < 50: // same timestamp as the previous packet
		case r < 99:
			now += 0.25 * float64(1+rng.Intn(4))
		default:
			now += 3 * timeout
		}
		recs = append(recs, trace.Record{
			Time: now,
			Hdr: netpkt.Header{
				SrcIP:    netpkt.IPv4Addr{10, 0, 0, byte(rng.Intn(2))},
				DstIP:    netpkt.IPv4Addr{172, 16, byte(rng.Intn(4)), byte(rng.Intn(2))},
				Protocol: netpkt.ProtoTCP,
				SrcPort:  1000,
				DstPort:  80,
				TotalLen: uint16(100 * (1 + rng.Intn(3))),
			},
		})
	}
	return recs
}

// TestFlushOrderMatchesStableSort checks Flush's admission-order placement
// and tie pass against a stable sort of the same entries, across forced
// equal-start ties, timed-out keys restarting in place, sweep evictions
// whose vacated table positions new flows reuse, mid-stream flushes and
// Resets between them. It also requires every admitted flow to come out
// exactly once, and that the stream exercised each of those paths.
func TestFlushOrderMatchesStableSort(t *testing.T) {
	const timeout = 5
	for _, def := range []Definition{By5Tuple, ByPrefix24} {
		for seed := int64(1); seed <= 3; seed++ {
			a, err := NewAssembler(def, timeout)
			if err != nil {
				t.Fatal(err)
			}
			ref := newAdmissionRef(def, timeout)
			var inPlace, evicted, reused, moved, flushes int
			check := func(at int) {
				admitted := len(ref.flows)
				got := a.Flush()
				want, mv := ref.flush()
				if n := len(got.Flows) + len(got.Discarded); n != admitted {
					t.Fatalf("def %v seed %d packet %d: flush returned %d entries, %d admitted", def, seed, at, n, admitted)
				}
				if !resultsEqual(got, want) {
					t.Fatalf("def %v seed %d packet %d: flush order differs from a stable sort", def, seed, at)
				}
				if mv {
					moved++
				}
				flushes++
			}
			for i, rec := range tiedRecords(6000, seed, timeout) {
				h, ka, kb := a.key(rec.Hdr.Packed())
				pos, ok := a.table.find(h, ka, kb)
				switch e := a.table.ent[pos]; {
				case ok && rec.Time-e.last > timeout:
					inPlace++
				case !ok && e != (flowEntry{}):
					// The new flow takes a position a deletion vacated.
					reused++
				}
				live := a.ActiveFlows()
				if !ok {
					live++
				}
				if err := a.Add(rec); err != nil {
					t.Fatal(err)
				}
				ref.add(rec)
				if a.ActiveFlows() < live {
					evicted++
				}
				switch {
				case i%1500 == 1499:
					check(i)
				case i%2300 == 2299:
					a.Reset()
					ref.reset()
				}
			}
			check(-1)
			if inPlace == 0 || evicted == 0 || reused == 0 || moved == 0 {
				t.Fatalf("def %v seed %d: stream missed a path (in-place restarts %d, evictions %d, position reuses %d, reordered flushes %d of %d)",
					def, seed, inPlace, evicted, reused, moved, flushes)
			}
		}
	}
}

// TestFlushOrderOneClock forces long equal-start runs, as a capture with a
// coarse clock gives: thousands of flows and single-packet flows share one
// start time, so the insertion pass gives up and the merge sort must still
// produce the stable order. Some flows carry a middle packet, so entries
// tied on start, end and size differ in Packets and instability would show.
func TestFlushOrderOneClock(t *testing.T) {
	const flows, timeout = 3000, 60
	rng := rand.New(rand.NewSource(5))
	var first, middle, last []trace.Record
	for k := range flows {
		hdr := func() netpkt.Header {
			return netpkt.Header{
				SrcIP:    netpkt.IPv4Addr{10, 0, byte(k >> 8), byte(k)},
				DstIP:    netpkt.IPv4Addr{172, 16, 0, 1},
				Protocol: netpkt.ProtoTCP,
				SrcPort:  1000,
				DstPort:  80,
				TotalLen: uint16(100 * (1 + rng.Intn(3))),
			}
		}
		first = append(first, trace.Record{Time: 0, Hdr: hdr()})
		if rng.Intn(4) == 0 {
			continue // a single-packet flow: its discard joins the run at 0
		}
		if rng.Intn(2) == 0 {
			middle = append(middle, trace.Record{Time: 0.5, Hdr: hdr()})
		}
		last = append(last, trace.Record{Time: float64(1 + rng.Intn(8)), Hdr: hdr()})
	}
	slices.SortStableFunc(last, func(x, y trace.Record) int { return cmp.Compare(x.Time, y.Time) })
	a, err := NewAssembler(By5Tuple, timeout)
	if err != nil {
		t.Fatal(err)
	}
	ref := newAdmissionRef(By5Tuple, timeout)
	for _, rec := range slices.Concat(first, middle, last) {
		if err := a.Add(rec); err != nil {
			t.Fatal(err)
		}
		ref.add(rec)
	}
	got := a.Flush()
	want, moved := ref.flush()
	if !moved || len(got.Flows)+len(got.Discarded) != flows {
		t.Fatalf("flush returned %d entries of %d (reordered %v)", len(got.Flows)+len(got.Discarded), flows, moved)
	}
	if !resultsEqual(got, want) {
		t.Fatal("one-clock flush order differs from a stable sort")
	}
}

// TestSettleTiesCostGuard pins when the insertion pass hands over to the
// merge sort: a reversed run of equal starts would cost it quadratic
// moves, so it must give up, while start-ordered input whose tie runs are
// short must settle in place.
func TestSettleTiesCostGuard(t *testing.T) {
	const n = 10000
	long := make([]Flow, n)
	for i := range long {
		long[i] = Flow{Start: 1, End: float64(n - i)}
	}
	if settleTies(long) {
		t.Fatal("settleTies finished a reversed run of 10,000 equal starts")
	}
	short := make([]Flow, n)
	for i := range short {
		// Runs of 4 equal starts, each reversed by end.
		short[i] = Flow{Start: float64(i / 4), End: float64(n - i)}
	}
	if !settleTies(short) {
		t.Fatal("settleTies gave up on tie runs of 4")
	}
	if !slices.IsSortedFunc(short, cmpFlow) {
		t.Fatal("settleTies left short tie runs out of order")
	}
}

// TestFlushRestartInPlaceTakesNewNumber pins the restart branch: a key
// whose flow timed out before any sweep ran restarts in its slot, and
// both flows must come out.
func TestFlushRestartInPlaceTakesNewNumber(t *testing.T) {
	a, err := NewAssembler(By5Tuple, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []trace.Record{
		rec(0, 1, 1, 1, 100), rec(0, 2, 2, 2, 40), rec(0.5, 1, 1, 1, 100),
		rec(5, 1, 1, 1, 200), rec(5.5, 1, 1, 1, 200),
	} {
		if err := a.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	got := a.Flush()
	want := Result{
		Flows:     []Flow{{Start: 0, End: 0.5, Bytes: 200, Packets: 2}, {Start: 5, End: 5.5, Bytes: 400, Packets: 2}},
		Discarded: []DiscardedPacket{{Time: 0, Bits: 320}},
	}
	if !resultsEqual(got, want) {
		t.Fatalf("flush = %+v, want %+v", got, want)
	}
}

// TestFlushBorrowsStorage pins the borrow rule: a flush reuses the
// previous flush's storage instead of allocating once warm.
func TestFlushBorrowsStorage(t *testing.T) {
	m, err := NewMeasurer([]Definition{By5Tuple, ByPrefix24}, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := tiedRecords(3000, 9, 5)
	blk := &trace.Block{}
	for _, rec := range recs {
		src, dst := rec.Hdr.Packed()
		blk.Append(rec.Time, rec.Hdr.TotalLen, src, dst)
	}
	interval := func() {
		m.Reset()
		if err := m.AddBlock(blk); err != nil {
			t.Fatal(err)
		}
		m.Flush()
	}
	interval()
	if allocs := testing.AllocsPerRun(5, interval); allocs != 0 {
		t.Fatalf("a warm interval allocates %.0f times, want 0", allocs)
	}
}
